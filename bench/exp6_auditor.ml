(* E6 — The auditor keeps up by exploiting its asymmetries (§3.4).

   One auditor re-executes *every* read the whole slave fleet serves.
   It survives because (a) it never signs, (b) it never replies to
   clients, (c) its result cache collapses repeated queries within a
   content version, and (d) it may lag: daily peaks push work into a
   backlog that drains in the trough.

   Part (a) measures per-read CPU on slaves vs the auditor over the
   same workload, plus the real RSA sign/verify asymmetry from our
   own implementation.  Part (b) runs two compressed "days" of
   diurnal load and plots the audit backlog: rising at the peak,
   draining at night, bounded over the long run. *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Slave = Secrep_core.Slave
module Auditor = Secrep_core.Auditor
module Stats = Secrep_sim.Stats
module Sim = Secrep_sim.Sim
module Work_queue = Secrep_sim.Work_queue
module Timeseries = Secrep_sim.Timeseries
module Prng = Secrep_crypto.Prng
module Rsa = Secrep_crypto.Rsa
module Query = Secrep_store.Query
module Result_cache = Secrep_store.Result_cache
module Diurnal = Secrep_workload.Diurnal
module Zipf = Secrep_workload.Zipf

let rsa_asymmetry () =
  let g = Prng.create ~seed:2024L in
  let key = Rsa.generate g ~bits:512 in
  let msg = String.make 256 'x' in
  let time_it f n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let sign_s = time_it (fun () -> Rsa.sign key msg) 20 in
  let signature = Rsa.sign key msg in
  let verify_s = time_it (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature) 20 in
  (sign_s, verify_s)

let diurnal_run ?(quick = false) () =
  let day = if quick then 300.0 else 600.0 in
  let config =
    {
      Exp_common.base_config with
      Config.double_check_probability = 0.01;
      per_doc_cost = 4e-3;
      (* expensive content: ~4ms per document scanned *)
      max_latency = 8.0;
      keepalive_period = 2.0;
    }
  in
  let system, keys =
    Exp_common.build_system ~config ~n_masters:2 ~slaves_per_master:3 ~n_clients:6
      ~seed:5L ~n_items:200 ()
  in
  let g = Prng.create ~seed:6L in
  let zipf = Zipf.create ~n:200 ~s:0.9 in
  let diurnal = Diurnal.create ~base_rate:5.0 ~peak_factor:8.0 ~period:day in
  let next_client = ref 0 in
  let issue () =
    let client = !next_client in
    next_client := (client + 1) mod System.n_clients system;
    let query =
      if Prng.float g < 0.7 then Query.point_read keys.(Zipf.sample zipf g)
      else begin
        (* A random range aggregate (random start *and* span): poorly
           cacheable, 10-50 documents scanned. *)
        let span = 10 + Prng.int g 40 in
        let i = Prng.int g (200 - span) in
        Query.Aggregate
          {
            from = Query.Key_range { lo = keys.(i); hi = keys.(i + span - 1) };
            where = Query.True;
            agg = Query.Sum "price";
          }
      end
    in
    System.read system ~client query ~on_done:(fun _ -> ())
  in
  let duration = 2.0 *. day in
  (* Occasional repricing writes bump the content version, which also
     invalidates the auditor's per-version cache — as in production. *)
  let writes = int_of_float (duration /. 25.0) in
  for i = 0 to writes - 1 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(25.0 *. float_of_int i) (fun () ->
           System.write system ~client:0
             (Secrep_store.Oplog.Set_field
                {
                  key = keys.(Prng.int g 200);
                  field = "price";
                  value = Secrep_store.Value.Float (Prng.float g *. 100.0);
                })
             ~on_done:(fun _ -> ())))
  done;
  let rec arm now =
    let time = Diurnal.next_arrival diurnal g ~now in
    if time <= duration then begin
      ignore (Sim.schedule (System.sim system) ~delay:time (fun () -> issue ()));
      arm time
    end
  in
  arm 0.0;
  System.run_for system (duration +. 200.0);
  system

let run ?(quick = false) fmt =
  let sign_s, verify_s = rsa_asymmetry () in
  let system = diurnal_run ~quick () in
  let stats = System.stats system in
  let auditor = System.auditor system in
  let reads = Stats.get stats "slave.reads_served" in
  let slave_busy =
    List.fold_left ( +. ) 0.0
      (List.init (System.n_slaves system) (fun i ->
           Work_queue.busy_seconds (Slave.work (System.slave system i))))
  in
  let auditor_busy = Work_queue.busy_seconds (Auditor.work auditor) in
  let cache = Auditor.cache auditor in
  let series = Auditor.backlog_series auditor in
  let rows =
    [
      [ "reads served by the slave fleet"; string_of_int reads ];
      [ "pledges audited"; string_of_int (Auditor.audited auditor) ];
      [ "slave CPU ms/read (fleet total / reads)";
        Exp_common.f3 (1000.0 *. slave_busy /. float_of_int (max 1 reads)) ];
      [ "auditor CPU ms/read (one host, ALL reads)";
        Exp_common.f3 (1000.0 *. auditor_busy /. float_of_int (max 1 reads)) ];
      [ "auditor advantage (slave/auditor per-read CPU)";
        Exp_common.f2 (slave_busy /. Float.max 1e-9 auditor_busy) ];
      [ "auditor cache hit rate"; Exp_common.pct (Result_cache.hit_rate cache) ];
      [ "peak audit backlog (pledges)";
        Exp_common.f2 (Option.value ~default:0.0 (Timeseries.max_value series)) ];
      [ "final audit backlog (after the night trough)";
        string_of_int (Auditor.backlog auditor) ];
      [ "slaves caught"; string_of_int (Auditor.caught auditor) ];
    ]
  in
  Exp_common.table fmt
    ~title:
      "E6  Auditor throughput asymmetry and diurnal catch-up (two compressed days,\n\
      \    sinusoidal load 6x trough-to-peak; one auditor audits the whole fleet)"
    ~header:[ "metric"; "value" ]
    ~wall_clock:
      [
        [ "measured RSA-512 sign (ms, real impl)"; Exp_common.f3 (1000.0 *. sign_s) ];
        [ "measured RSA-512 verify (ms, real impl)"; Exp_common.f3 (1000.0 *. verify_s) ];
        [ "sign/verify asymmetry"; Exp_common.f2 (sign_s /. verify_s) ];
      ]
    rows;
  Format.fprintf fmt "@.Audit backlog over two days (E6 figure):@.";
  Timeseries.pp_ascii ~width:64 ~height:10 fmt series
