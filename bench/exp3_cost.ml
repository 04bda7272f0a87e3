(* E3 — Resource cost and latency vs the two generic alternatives (§1, §5).

   The same mixed read workload (Zipf point reads, range scans, greps,
   aggregates) runs through:

     - this paper's scheme (1 slave execution + p double-checks
       + 1 background audit re-execution, amortised by the cache);
     - PBFT-style state-machine replication with f = 1..3
       (2f+1 executions per read, latency set by the slowest quorum
       member);
     - Merkle state signing (dynamic queries execute on the trusted
       host after per-document fetch + verify).

   The paper's claim: the scheme's *foreground* cost stays near one
   execution per read and its latency near a single-slave round trip,
   while SMR multiplies both and state signing shifts the whole
   dynamic-query load onto trusted hosts. *)

module System = Secrep_core.System
module Master = Secrep_core.Master
module Slave = Secrep_core.Slave
module Auditor = Secrep_core.Auditor
module Stats = Secrep_sim.Stats
module Histogram = Secrep_sim.Histogram
module Work_queue = Secrep_sim.Work_queue
module Sim = Secrep_sim.Sim
module Latency = Secrep_sim.Latency
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Mix = Secrep_workload.Mix
module Driver = Secrep_workload.Driver
module Catalog = Secrep_workload.Catalog
module Baseline_common = Secrep_baselines.Baseline_common
module Smr_quorum = Secrep_baselines.Smr_quorum
module State_signing = Secrep_baselines.State_signing

type row = {
  name : string;
  execs_per_read : float;
  mean_latency : float;
  p99_latency : float;
  trusted_ms_per_read : float;
  untrusted_ms_per_read : float;
}

let wan_latency = Latency.Exponential { mean = 0.01; floor = 0.03 }

let run_secrep ~n_reads ~seed =
  let system, keys = Exp_common.build_system ~seed ~n_items:200 () in
  let g = Prng.create ~seed:(Int64.add seed 3L) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  let duration = float_of_int n_reads /. 10.0 in
  Driver.run_reads driver ~rate:10.0 ~duration;
  System.run_for system (duration +. 120.0);
  let s = Driver.summary driver in
  let stats = System.stats system in
  let n = max 1 s.Driver.reads_completed in
  let slave_execs = Stats.get stats "slave.reads_served" in
  let dc = Stats.get stats "master.double_checks_served" in
  let audited = Auditor.audited (System.auditor system) in
  let trusted =
    let masters =
      List.init (System.n_masters system) (fun i ->
          Work_queue.busy_seconds (Master.work (System.master system i)))
    in
    List.fold_left ( +. ) 0.0 masters
    +. Work_queue.busy_seconds (Auditor.work (System.auditor system))
  in
  let untrusted =
    let slaves =
      List.init (System.n_slaves system) (fun i ->
          Work_queue.busy_seconds (Slave.work (System.slave system i)))
    in
    List.fold_left ( +. ) 0.0 slaves
  in
  {
    name = "secrep (p=0.05, audit on)";
    execs_per_read = float_of_int (slave_execs + dc + audited) /. float_of_int n;
    mean_latency = s.Driver.mean_latency;
    p99_latency = s.Driver.p99_latency;
    trusted_ms_per_read = 1000.0 *. trusted /. float_of_int n;
    untrusted_ms_per_read = 1000.0 *. untrusted /. float_of_int n;
  }

let run_baseline_workload ~sim ~n_reads ~seed read_fn name =
  let g = Prng.create ~seed in
  let keys = Array.init 200 (Printf.sprintf "product:%05d") in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let latencies = Histogram.create () in
  let execs = ref 0 and trusted = ref 0.0 and untrusted = ref 0.0 and done_ = ref 0 in
  (* Same 10 reads/s pacing as the secrep run, so queueing conditions
     are comparable. *)
  for i = 1 to n_reads do
    ignore
      (Sim.schedule sim ~delay:(float_of_int i /. 10.0) (fun () ->
           read_fn (Mix.next_query mix) (fun (m : Baseline_common.read_metrics) ->
               incr done_;
               Histogram.add latencies m.Baseline_common.latency;
               execs := !execs + m.Baseline_common.server_executions;
               trusted := !trusted +. m.Baseline_common.trusted_compute;
               untrusted := !untrusted +. m.Baseline_common.untrusted_compute)))
  done;
  fun () ->
    let n = max 1 !done_ in
    {
      name;
      execs_per_read = float_of_int !execs /. float_of_int n;
      mean_latency = Histogram.mean latencies;
      p99_latency = Histogram.percentile latencies 99.0;
      trusted_ms_per_read = 1000.0 *. !trusted /. float_of_int n;
      untrusted_ms_per_read = 1000.0 *. !untrusted /. float_of_int n;
    }

let run_smr ~n_reads ~seed ~f =
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let smr =
    Smr_quorum.create sim ~rng ~f ~latency:wan_latency ()
  in
  let g = Prng.create ~seed:(Int64.add seed 9L) in
  Smr_quorum.load_content smr (Catalog.product_catalog g ~n:200);
  let finish =
    run_baseline_workload ~sim ~n_reads ~seed
      (fun q k -> Smr_quorum.read smr q ~on_done:k)
      (Printf.sprintf "SMR quorum (f=%d, %d replicas)" f ((3 * f) + 1))
  in
  Sim.run sim;
  finish ()

let run_state_signing ~n_reads ~seed =
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let signer = Sig_scheme.generate Sig_scheme.Hmac_sim rng in
  let ss =
    State_signing.create sim ~rng
      ~storage_latency:(Latency.Exponential { mean = 0.004; floor = 0.006 })
      ~trusted_latency:wan_latency ~signer ()
  in
  let g = Prng.create ~seed:(Int64.add seed 9L) in
  State_signing.load_content ss (Catalog.product_catalog g ~n:200);
  let finish =
    run_baseline_workload ~sim ~n_reads ~seed
      (fun q k -> State_signing.read ss q ~on_done:k)
      "state signing (Merkle)"
  in
  Sim.run sim;
  finish ()

let run ?(quick = false) fmt =
  let n_reads = if quick then 150 else 600 in
  let seed = 97L in
  let rows =
    [
      run_secrep ~n_reads ~seed;
      run_smr ~n_reads ~seed ~f:1;
      run_smr ~n_reads ~seed ~f:2;
      run_smr ~n_reads ~seed ~f:3;
      run_state_signing ~n_reads ~seed;
    ]
  in
  Exp_common.table fmt
    ~title:
      "E3  Per-read cost: this scheme vs state-machine replication vs state signing\n\
      \    (same mixed workload; execs = query executions anywhere, incl. audit)"
    ~header:
      [
        "scheme";
        "execs/read";
        "mean lat (ms)";
        "p99 lat (ms)";
        "trusted ms/read";
        "untrusted ms/read";
      ]
    (List.map
       (fun r ->
         [
           r.name;
           Exp_common.f2 r.execs_per_read;
           Exp_common.f2 (1000.0 *. r.mean_latency);
           Exp_common.f2 (1000.0 *. r.p99_latency);
           Exp_common.f3 r.trusted_ms_per_read;
           Exp_common.f3 r.untrusted_ms_per_read;
         ])
       rows)
