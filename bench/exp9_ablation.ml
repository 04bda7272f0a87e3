(* E9 — Ablations of the design choices DESIGN.md calls out.

   (a) The auditor's result cache (§3.4 "cache results in the simplest
       case"): with the cache effectively disabled the auditor
       re-executes every pledge and its CPU-per-read multiplies.
   (b) Extra auditors (§3.4 "the solution is to either add extra
       auditors, or weaken the security guarantees"): sharding
       pledges over two auditors halves each one's load, where the
       alternative — audit_fraction < 1 — trades guarantees instead.
   (c) Greedy-client throttling (§3.3): without it, one abusive client
       can push unbounded double-check load onto its master. *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Auditor = Secrep_core.Auditor
module Stats = Secrep_sim.Stats
module Sim = Secrep_sim.Sim
module Work_queue = Secrep_sim.Work_queue
module Prng = Secrep_crypto.Prng
module Query = Secrep_store.Query
module Audit_index = Secrep_store.Audit_index
module Zipf = Secrep_workload.Zipf

(* -- (a) + (b): auditor cache and auditor count ----------------------- *)

let audit_run ~cache_capacity ~n_auditors ~audit_fraction ~n_reads ~seed =
  let config =
    {
      Exp_common.base_config with
      Config.double_check_probability = 0.0;
      audit_cache_capacity = cache_capacity;
      audit_fraction;
      per_doc_cost = 1e-3;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:3 ~n_clients:6 ~n_auditors ~config
      ~seed ()
  in
  let g = Prng.create ~seed:(Int64.add seed 5L) in
  let content = Secrep_workload.Catalog.product_catalog g ~n:150 in
  System.load_content system content;
  let keys = Array.of_list (List.map fst content) in
  let zipf = Zipf.create ~n:150 ~s:0.9 in
  for i = 0 to n_reads - 1 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.05 *. float_of_int i) (fun () ->
           (* Zipf point reads with an occasional grep: a cache-friendly
              mix, so disabling the cache is visible. *)
           let query =
             if i mod 10 = 0 then Query.grep "deluxe"
             else Query.point_read keys.(Zipf.sample zipf g)
           in
           System.read system ~client:(i mod 6) query ~on_done:(fun _ -> ())))
  done;
  System.run_for system ((0.05 *. float_of_int n_reads) +. 120.0);
  let auditors = System.auditors system in
  let audited = List.fold_left (fun acc a -> acc + Auditor.audited a) 0 auditors in
  let cpu =
    List.fold_left (fun acc a -> acc +. Work_queue.busy_seconds (Auditor.work a)) 0.0 auditors
  in
  let max_cpu =
    List.fold_left (fun acc a -> Float.max acc (Work_queue.busy_seconds (Auditor.work a))) 0.0
      auditors
  in
  let hits = List.fold_left (fun acc a -> acc + Audit_index.hits (Auditor.cache a)) 0 auditors in
  let misses =
    List.fold_left (fun acc a -> acc + Audit_index.misses (Auditor.cache a)) 0 auditors
  in
  let hit_rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  (audited, cpu, max_cpu, hit_rate)

let run ?(quick = false) fmt =
  let n_reads = if quick then 400 else 1500 in
  let cases =
    [
      ("baseline (cache on, 1 auditor)", 4096, 1, 1.0);
      ("cache DISABLED (capacity 1)", 1, 1, 1.0);
      ("2 auditors (sharded by query)", 4096, 2, 1.0);
      ("audit only 25% of pledges", 4096, 1, 0.25);
    ]
  in
  let rows =
    List.map
      (fun (label, cache_capacity, n_auditors, audit_fraction) ->
        let audited, cpu, max_cpu, hit_rate =
          audit_run ~cache_capacity ~n_auditors ~audit_fraction ~n_reads ~seed:71L
        in
        [
          label;
          string_of_int audited;
          Exp_common.pct hit_rate;
          Exp_common.f3 (1000.0 *. cpu /. float_of_int (max 1 audited));
          Exp_common.f2 max_cpu;
        ])
      cases
  in
  Exp_common.table fmt
    ~title:
      "E9a  Auditor ablations: the result cache, extra auditors, and the\n\
      \     audit-fraction fallback (same Zipf-heavy workload)"
    ~header:
      [ "variant"; "audited"; "cache hit rate"; "auditor ms/audit"; "busiest auditor (s)" ]
    rows;
  (* -- (c) greedy throttling ------------------------------------------- *)
  let greedy_run ~enabled =
    let config =
      {
        Exp_common.base_config with
        Config.double_check_probability = 1.0;
        (* factor 1e6 => nobody is ever suspected: detector off. *)
        greedy_factor = (if enabled then 3.0 else 1e6);
        greedy_min_samples = 8;
        greedy_window = 300.0;
      }
    in
    (* One master so every client shares the same greedy cohort (the
       detector is relative: a lone client on its own master has no
       baseline to stand out against). *)
    let system, keys =
      Exp_common.build_system ~config ~n_masters:1 ~slaves_per_master:4 ~seed:73L
        ~n_items:50 ()
    in
    (* One abusive client hammering reads (every one double-checked);
       five polite clients reading slowly. *)
    let sim = System.sim system in
    let n = if quick then 150 else 500 in
    for i = 0 to n - 1 do
      ignore
        (Sim.schedule sim ~delay:(0.2 *. float_of_int i) (fun () ->
             System.read system ~client:0 (Query.point_read keys.(i mod 50))
               ~on_done:(fun _ -> ())))
    done;
    (* Polite cohort: every other client reads once per 2 seconds, so
       each master sees a healthy double-check baseline. *)
    for i = 0 to (n * 2) - 1 do
      ignore
        (Sim.schedule sim ~delay:(0.4 *. float_of_int i) (fun () ->
             System.read system
               ~client:(1 + (i mod 5))
               (Query.point_read keys.(i mod 50))
               ~on_done:(fun _ -> ())))
    done;
    System.run_for system ((0.2 *. float_of_int n) +. 60.0);
    let stats = System.stats system in
    ( Stats.get stats "master.double_checks_served",
      Stats.get stats "master.double_checks_throttled" )
  in
  let on_served, on_throttled = greedy_run ~enabled:true in
  let off_served, off_throttled = greedy_run ~enabled:false in
  Exp_common.table fmt
    ~title:
      "E9b  Greedy-client throttling (§3.3): one client double-checks every read\n\
      \     (p=1); without the detector the master absorbs all of it"
    ~header:[ "detector"; "double-checks served"; "throttled" ]
    [
      [ "on"; string_of_int on_served; string_of_int on_throttled ];
      [ "off"; string_of_int off_served; string_of_int off_throttled ];
    ]
