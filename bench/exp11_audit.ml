(* E11 — Deduplicated audit re-execution + Merkle-batched pledge signing.

   The paper's auditor re-executes every read it audits (§3.4); the slave
   signs every pledge.  Under a skewed (Zipf) read mix both are mostly
   redundant work: the same query against the same content version keeps
   being re-executed, and consecutive pledges from one slave can share a
   single signature over a Merkle root.

   Baseline here is the *naive per-pledge* auditor (re-execution memo
   ablated to capacity 1, E9's knob) with one RSA signature per pledge.
   The optimized variant keeps the default memo and batches pledge
   signing.  The default, unbatched, sits between the two. *)

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

type outcome = {
  audited : int;
  reexecs : int;
  signatures : int;
  dedup_hits : int;
  cpu : float;
}

let run_case ~batch ~window ~cache_capacity ~n_reads ~seed =
  let config =
    {
      Exp_common.base_config with
      Config.double_check_probability = 0.0;
      audit_cache_capacity = cache_capacity;
      pledge_batch_size = batch;
      pledge_batch_window = window;
      per_doc_cost = 1e-3;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:3 ~n_clients:6 ~config ~seed ()
  in
  let g = Prng.create ~seed:(Int64.add seed 5L) in
  let content = Secrep_workload.Catalog.product_catalog g ~n:150 in
  System.load_content system content;
  let keys = Array.of_list (List.map fst content) in
  let zipf = Zipf.create ~n:150 ~s:1.0 in
  let spacing = 0.03 in
  for i = 0 to n_reads - 1 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(spacing *. float_of_int i) (fun () ->
           let query = Query.point_read keys.(Zipf.sample zipf g) in
           System.read system ~client:(i mod 6) query ~on_done:(fun _ -> ())))
  done;
  System.run_for system ((spacing *. float_of_int n_reads) +. 120.0);
  let stats = System.stats system in
  let auditors = System.auditors system in
  {
    audited = List.fold_left (fun acc a -> acc + Auditor.audited a) 0 auditors;
    reexecs = Stats.get stats "auditor.reexecutions";
    signatures = Stats.get stats "slave.signatures";
    dedup_hits =
      List.fold_left (fun acc a -> acc + Audit_index.hits (Auditor.cache a)) 0 auditors;
    cpu =
      List.fold_left
        (fun acc a -> acc +. Work_queue.busy_seconds (Auditor.work a))
        0.0 auditors;
  }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let run ?(quick = false) fmt =
  let n_reads = if quick then 600 else 2000 in
  (* Per-slave pledge inter-arrival is spacing * n_clients = 0.18 s, so a
     2 s window lets the size trigger (batch of 8) dominate. *)
  let cases =
    [
      ("naive per-pledge (memo capacity 1, batch 1)", 1, 0.05, 1);
      ("dedup index, unbatched", 1, 0.05, 4096);
      ("dedup index + batch 8", 8, 2.0, 4096);
    ]
  in
  let results =
    List.map
      (fun (label, batch, window, cache_capacity) ->
        (label, run_case ~batch ~window ~cache_capacity ~n_reads ~seed:111L))
      cases
  in
  let rows =
    List.map
      (fun (label, o) ->
        [
          label;
          string_of_int o.audited;
          string_of_int o.reexecs;
          string_of_int o.dedup_hits;
          string_of_int o.signatures;
          Exp_common.f2 o.cpu;
        ])
      results
  in
  Exp_common.table fmt
    ~title:
      "E11  Audit dedup + Merkle-batched pledges: Zipf(1.0) point reads over\n\
      \     150 items; redundant re-execution and per-pledge signing ablated"
    ~header:
      [ "variant"; "audited"; "re-execs"; "dedup hits"; "slave sigs"; "auditor cpu (s)" ]
    rows;
  let baseline = List.assoc "naive per-pledge (memo capacity 1, batch 1)" results in
  let optimized = List.assoc "dedup index + batch 8" results in
  let reexec_reduction = ratio baseline.reexecs (max 1 optimized.reexecs) in
  let sig_reduction = ratio baseline.signatures (max 1 optimized.signatures) in
  let hit_rate = ratio optimized.dedup_hits (optimized.dedup_hits + optimized.reexecs) in
  Format.fprintf fmt
    "@.re-execution reduction: %sx   signature reduction: %sx   dedup hit rate: %s@."
    (Exp_common.f2 reexec_reduction)
    (Exp_common.f2 sig_reduction) (Exp_common.pct hit_rate);
  [
    Exp_common.gate "dedup hits" ~value:(string_of_int optimized.dedup_hits)
      ~threshold:"> 0" (optimized.dedup_hits > 0);
  ]
