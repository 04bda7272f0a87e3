(* E12 — Sharding the content plane: throughput + detection vs shard count.

   One protocol instance serializes all pledge signing through a handful
   of replicas; with realistic signature cost a single shard saturates
   well below the offered read rate.  Sharding the catalogue over K
   independent content items (each its own masters/slaves/auditor,
   placed by rendezvous hashing on one shared host pool) divides the
   offered load K ways while the §3.4 audit machinery keeps running
   *per shard* — so detection latency for a liar inside any one shard
   should stay flat as K grows.

   Fixed hardware budget: the host pool, replication factor per shard,
   and total offered read rate are identical across every K; only the
   shard count changes.  We report aggregate accepted-read throughput
   (expected to rise monotonically K=1 -> 16 as the signing bottleneck
   is divided) and per-shard detection latency for one liar per shard
   (first lied pledge -> exclusion, expected within the
   max_latency + audit_lag_slack budget regardless of K). *)

module Deployment = Secrep_shard.Deployment
module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Event = Secrep_sim.Event
module Trace = Secrep_sim.Trace
module Prng = Secrep_crypto.Prng
module Query = Secrep_store.Query
module Zipf = Secrep_workload.Zipf

type outcome = {
  k : int;
  issued : int;
  accepted : int;
  gave_up : int;
  throughput : float;  (** slave-served reads / s of offered window *)
  liars : int;  (** shards whose liar actually lied during the run *)
  detected : int;
  mean_detect : float;
  max_detect : float;
}

let lie_from = 5.0
let replication = 3
let pool = 16  (* fixed hardware budget: same pool for every K *)

let config =
  {
    Exp_common.base_config with
    Config.max_latency = 4.0;
    keepalive_period = 1.0;
    double_check_probability = 0.05;
    audit_lag_slack = 1.0;
    (* The knob that makes few-shard deployments saturate: each pledge
       costs real signing time on the serving slave's work queue, so a
       shard's capacity is replication/signature_cost ~ 14 reads/s —
       well under the offered 60/s at K=1, just under it at K=4. *)
    signature_cost = 0.21;
    (* No trusted-master fallback: overload must surface as give-ups,
       not as reads quietly absorbed by the master. *)
    degraded_reads = false;
  }

let run_case ~k ~duration ~total_rate ~seed =
  let d =
    Deployment.create ~n_shards:k ~n_masters:1 ~replication_factor:replication
      ~n_clients:4 ~pool_size:pool ~config ~seed ~items_per_shard:40 ()
  in
  (* One liar per shard: local slave 0, corrupting 20% of answers. *)
  for i = 0 to k - 1 do
    System.set_slave_behavior (Deployment.system d i) ~slave:0
      (Fault.Malicious
         { probability = 0.2; mode = Fault.Corrupt_result; from_time = lie_from })
  done;
  (* Detection bookkeeping straight off the merged event stream. *)
  let first_lie = Array.make k nan and excluded_at = Array.make k nan in
  Deployment.on_event d (fun ~shard r ->
      match r.Trace.event with
      | Event.Pledge_signed { lied = true; _ } when Float.is_nan first_lie.(shard) ->
        first_lie.(shard) <- r.Trace.time
      | Event.Slave_excluded _ when Float.is_nan excluded_at.(shard) ->
        excluded_at.(shard) <- r.Trace.time
      | _ -> ());
  (* Fixed offered load, split evenly: each shard gets a Zipf point-read
     stream at total_rate / k, phase-shifted so arrivals interleave. *)
  let issued = ref 0 and accepted = ref 0 and gave_up = ref 0 in
  (* Round the total down to a multiple of 64 so every K in the sweep
     offers exactly the same number of reads. *)
  let total = int_of_float (total_rate *. duration) / 64 * 64 in
  let per_shard = total / k in
  let spacing = duration /. float_of_int per_shard in
  for i = 0 to k - 1 do
    let keys = Deployment.keys d i in
    let zipf = Zipf.create ~n:(Array.length keys) ~s:0.9 in
    let g = Prng.create ~seed:(Int64.add seed (Int64.of_int (7000 + i))) in
    for j = 0 to per_shard - 1 do
      let at =
        1.0 +. (spacing *. float_of_int j)
        +. (spacing *. float_of_int i /. float_of_int k)
      in
      Deployment.schedule d ~shard:i ~time:at (fun () ->
          incr issued;
          let query = Query.point_read keys.(Zipf.sample zipf g) in
          Deployment.read d ~shard:i ~client:(j mod 4) query ~on_done:(fun report ->
              match report.Secrep_core.Client.outcome with
              | `Accepted _ -> incr accepted
              | `Served_by_master _ | `Gave_up -> incr gave_up))
    done
  done;
  Deployment.run_until d
    (duration +. (10.0 *. config.Config.max_latency) +. 60.0);
  let detections =
    List.filter_map
      (fun i ->
        if Float.is_nan first_lie.(i) || Float.is_nan excluded_at.(i) then None
        else Some (excluded_at.(i) -. first_lie.(i)))
      (List.init k (fun i -> i))
  in
  let lied_shards =
    List.length
      (List.filter
         (fun i -> not (Float.is_nan first_lie.(i)))
         (List.init k (fun i -> i)))
  in
  {
    k;
    issued = !issued;
    accepted = !accepted;
    gave_up = !gave_up;
    throughput = float_of_int !accepted /. duration;
    liars = lied_shards;
    detected = List.length detections;
    mean_detect = Exp_common.mean detections;
    max_detect = List.fold_left Float.max 0.0 detections;
  }

let run ?(quick = false) fmt =
  let ks = if quick then [ 1; 4; 16 ] else [ 1; 4; 16; 64 ] in
  let duration = if quick then 30.0 else 60.0 in
  let total_rate = 60.0 in
  let budget = config.Config.max_latency +. config.Config.audit_lag_slack in
  let results =
    List.map (fun k -> run_case ~k ~duration ~total_rate ~seed:424242L) ks
  in
  let rows =
    List.map
      (fun o ->
        [
          string_of_int o.k;
          string_of_int o.issued;
          string_of_int o.accepted;
          string_of_int o.gave_up;
          Exp_common.f2 o.throughput;
          Printf.sprintf "%d/%d" o.detected o.liars;
          Exp_common.f2 o.mean_detect;
          Exp_common.f2 o.max_detect;
        ])
      results
  in
  Exp_common.table fmt
    ~title:
      (Printf.sprintf
         "E12  Sharded content plane: %d-host pool, replication %d/shard,\n\
         \     %.0f reads/s offered total, one 20%%-liar per shard from t=%.0fs"
         pool replication total_rate lie_from)
    ~header:
      [
        "shards";
        "issued";
        "accepted";
        "gave up";
        "reads/s";
        "caught";
        "mean detect (s)";
        "max detect (s)";
      ]
    rows;
  let tp k = (List.find (fun o -> o.k = k) results).throughput in
  let liars = List.fold_left (fun acc o -> acc + o.liars) 0 results in
  let detected = List.fold_left (fun acc o -> acc + o.detected) 0 results in
  let max_detect = List.fold_left (fun acc o -> Float.max acc o.max_detect) 0.0 results in
  [
    Exp_common.gate "throughput monotone K=1->16"
      ~value:(Printf.sprintf "%.2f, %.2f, %.2f reads/s" (tp 1) (tp 4) (tp 16))
      ~threshold:"strictly increasing"
      (tp 1 < tp 4 && tp 4 < tp 16);
    Exp_common.gate "all liars caught"
      ~value:(Printf.sprintf "%d/%d" detected liars)
      ~threshold:"all"
      (List.for_all (fun o -> o.detected = o.liars) results);
    Exp_common.gate "max detection within budget"
      ~value:(Printf.sprintf "%.2fs" max_detect)
      ~threshold:(Printf.sprintf "<= %.1fs" budget)
      (List.for_all (fun o -> o.detected = 0 || o.max_detect <= budget) results);
  ]
