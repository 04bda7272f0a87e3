(* E14 — Domain-parallel shard execution: speedup with a determinism
   oracle.

   The sharded deployment advances K independent single-content systems
   in lockstep slices, which is embarrassingly parallel — except that
   the whole test story rests on bit-identical replay.  The parallel
   scheduler therefore buys wall-clock time only if it changes nothing
   else: this experiment sweeps the worker-domain count over one fixed
   K-shard deployment + workload and, for every row, recomputes the
   per-shard event stream digests and compares them to the sequential
   baseline.  A digest mismatch fails the experiment outright; speedup
   without determinism is worthless here.

   Speedup itself is hardware-gated: on a single-core container every
   domains > 1 row pays barrier overhead for nothing, so the >= 1.5x
   assertion at 4 domains only applies when the machine actually has
   4+ cores ([Domain.recommended_domain_count]).  The digest oracle is
   asserted unconditionally — determinism must hold on any machine. *)

module Deployment = Secrep_shard.Deployment
module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Event = Secrep_sim.Event
module Trace = Secrep_sim.Trace
module Prng = Secrep_crypto.Prng
module Sha1 = Secrep_crypto.Sha1
module Hex = Secrep_crypto.Hex
module Query = Secrep_store.Query
module Zipf = Secrep_workload.Zipf

type outcome = {
  domains : int;
  wall : float;  (** wall-clock seconds for Deployment.run_until *)
  speedup : float;  (** sequential wall / this wall *)
  digests : string list;  (** per-shard stream digests, shard order *)
  events : int;  (** total events across every shard stream *)
  accepted : int;
}

let replication = 2
let lie_from = 5.0

let config =
  {
    Exp_common.base_config with
    Config.max_latency = 4.0;
    keepalive_period = 1.0;
    audit_lag_slack = 1.0;
    (* Some real per-read signing work so a slice carries enough
       computation to amortize the barrier. *)
    signature_cost = 0.05;
  }

let digest_of records =
  let ctx = Sha1.init () in
  List.iter
    (fun (r : Trace.record) ->
      Sha1.feed ctx
        (Printf.sprintf "%.9f|%s|%s\n" r.Trace.time r.Trace.source
           (Event.to_string r.Trace.event)))
    records;
  Hex.encode (Sha1.finalize ctx)

let run_case ~k ~domains ~duration ~total_rate ~seed =
  let d =
    Deployment.create ~n_shards:k ~n_masters:1 ~replication_factor:replication
      ~n_clients:2 ~config ~seed ~items_per_shard:20 ~domains ()
  in
  (* A liar in shard 0 and a mid-run host crash/recovery: the oracle
     must also cover exclusion re-homing and chaos fan-out, not just
     the happy path. *)
  System.set_slave_behavior (Deployment.system d 0) ~slave:0
    (Fault.Malicious
       { probability = 0.2; mode = Fault.Corrupt_result; from_time = lie_from });
  let victim = (Deployment.hosts_of_shard d 1).(0) in
  Deployment.crash_host d ~at:(duration /. 2.0) victim;
  Deployment.recover_host d ~at:((duration /. 2.0) +. 10.0) victim;
  let streams_rev = Array.make k [] in
  for i = 0 to k - 1 do
    Trace.on_emit
      (System.trace (Deployment.system d i))
      (fun r -> streams_rev.(i) <- r :: streams_rev.(i))
  done;
  (* Fixed offered load split evenly across shards, phase-shifted. *)
  let accepted = ref 0 in
  let total = int_of_float (total_rate *. duration) / k * k in
  let per_shard = total / k in
  let spacing = duration /. float_of_int per_shard in
  for i = 0 to k - 1 do
    let keys = Deployment.keys d i in
    let zipf = Zipf.create ~n:(Array.length keys) ~s:0.9 in
    let g = Prng.create ~seed:(Int64.add seed (Int64.of_int (9000 + i))) in
    for j = 0 to per_shard - 1 do
      let at =
        1.0 +. (spacing *. float_of_int j)
        +. (spacing *. float_of_int i /. float_of_int k)
      in
      Deployment.schedule d ~shard:i ~time:at (fun () ->
          let query = Query.point_read keys.(Zipf.sample zipf g) in
          Deployment.read d ~shard:i ~client:(j mod 2) query ~on_done:(fun report ->
              match report.Secrep_core.Client.outcome with
              | `Accepted _ -> incr accepted
              | `Served_by_master _ | `Gave_up -> ()))
    done
  done;
  let t0 = Unix.gettimeofday () in
  Deployment.run_until d (duration +. (10.0 *. config.Config.max_latency) +. 30.0);
  let wall = Unix.gettimeofday () -. t0 in
  let digests = List.init k (fun i -> digest_of (List.rev streams_rev.(i))) in
  let events = Array.fold_left (fun acc l -> acc + List.length l) 0 streams_rev in
  { domains; wall; speedup = 1.0; digests; events; accepted = !accepted }

let run ?(quick = false) fmt =
  let k = if quick then 16 else 64 in
  let sweep = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let duration = if quick then 30.0 else 60.0 in
  let total_rate = if quick then 32.0 else 64.0 in
  let seed = 141414L in
  let cores = Domain.recommended_domain_count () in
  let baseline = run_case ~k ~domains:0 ~duration ~total_rate ~seed in
  let results =
    List.map
      (fun domains ->
        let o = run_case ~k ~domains ~duration ~total_rate ~seed in
        { o with speedup = baseline.wall /. o.wall })
      sweep
  in
  let matches o = List.for_all2 String.equal baseline.digests o.digests in
  let rows =
    List.map
      (fun o ->
        [
          string_of_int o.domains;
          Printf.sprintf "%.2f" o.wall;
          Printf.sprintf "%.2fx" o.speedup;
          string_of_int o.events;
          string_of_int o.accepted;
          (if matches o then "identical" else "DIVERGED");
        ])
      results
  in
  Exp_common.table fmt
    ~title:
      (Printf.sprintf
         "E14  Domain-parallel shard execution: K=%d shards, %.0f reads/s offered,\n\
         \     liar in shard 0 + host crash mid-run; sequential baseline %.2fs\n\
         \     (machine reports %d core(s))"
         k total_rate baseline.wall cores)
    ~header:[ "domains"; "wall (s)"; "speedup"; "events"; "accepted"; "vs sequential" ]
    rows;
  let identical = List.length (List.filter matches results) in
  let speedup_at_4 = (List.find (fun o -> o.domains = 4) results).speedup in
  [
    Exp_common.gate "all rows identical to sequential"
      ~value:(Printf.sprintf "%d/%d rows" identical (List.length results))
      ~threshold:"all"
      (identical = List.length results);
    Exp_common.gate "speedup at 4 domains on 4+ cores"
      ~applies:(cores >= 4)
      ~value:(Printf.sprintf "%.2fx" speedup_at_4)
      ~threshold:">= 1.50x" (speedup_at_4 >= 1.5);
  ]
