(* CDN product catalogue — the paper's motivating scenario (§6).

   An e-commerce catalogue is replicated over a content delivery
   network: trusted master servers run by the store, marginally
   trusted edge (slave) servers run by the CDN.  One edge node is
   compromised and starts returning wrong prices.  We watch the
   protocol catch it: an incriminating pledge gets the slave excluded
   and its clients re-homed.

   Run with: dune exec examples/cdn_catalog.exe *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Auditor = Secrep_core.Auditor
module Sim = Secrep_sim.Sim
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog
module Mix = Secrep_workload.Mix
module Driver = Secrep_workload.Driver

let () =
  let config =
    {
      Config.default with
      Config.max_latency = 5.0;
      keepalive_period = 1.0;
      double_check_probability = 0.05;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:4 ~n_clients:8 ~config ~seed:2003L ()
  in
  let g = Prng.create ~seed:42L in
  let catalog = Catalog.product_catalog g ~n:500 in
  System.load_content system catalog;
  Printf.printf "catalogue: %d products on %d edge servers (2 masters, 1 auditor)\n"
    (List.length catalog) (System.n_slaves system);

  (* A hacked edge server starts lying 60 seconds in. *)
  let hacked = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:hacked
    (Fault.Malicious { probability = 0.3; mode = Fault.Corrupt_result; from_time = 60.0 });
  Printf.printf "edge server %d is compromised from t=60s (lies on 30%% of queries)\n" hacked;

  (* Shoppers browse: Zipf-popular product pages, category scans, the
     occasional storewide search; the store occasionally reprices. *)
  let keys = Array.of_list (List.map fst catalog) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  Driver.run_reads driver ~rate:20.0 ~duration:300.0;
  Driver.run_writes driver ~rate:0.05 ~duration:300.0 ~writer:1;
  System.run_for system 500.0;

  let summary = Driver.summary driver in
  Printf.printf "\n--- after %.0f simulated seconds ---\n" (Sim.now (System.sim system));
  Printf.printf "reads completed: %d (accepted %d, gave up %d)\n"
    summary.Driver.reads_completed summary.Driver.reads_accepted summary.Driver.reads_gave_up;
  Printf.printf "mean read latency: %.1f ms (p99 %.1f ms)\n"
    (1000.0 *. summary.Driver.mean_latency)
    (1000.0 *. summary.Driver.p99_latency);
  Printf.printf "double-checks sent to masters: %d\n" summary.Driver.double_checks;
  Printf.printf "wrong prices accepted before detection: %d\n" summary.Driver.accepted_wrong;

  (match Corrective.first_detection (System.corrective system) ~slave_id:hacked with
  | Some e ->
    Printf.printf "edge server %d excluded at t=%.1fs (%s discovery), %d clients re-homed\n"
      hacked e.Corrective.time
      (match e.Corrective.discovery with
      | Corrective.Immediate -> "immediate: client double-check"
      | Corrective.Delayed -> "delayed: background audit")
      e.Corrective.clients_reassigned
  | None -> Printf.printf "edge server %d was NOT caught (unexpected)\n" hacked);

  let auditor = System.auditor system in
  Printf.printf "auditor: %d pledges audited, %d cache hits, backlog %d\n"
    (Auditor.audited auditor)
    (Secrep_store.Audit_index.hits (Auditor.cache auditor))
    (Auditor.backlog auditor);
  Printf.printf "reads after exclusion keep flowing through the remaining %d edges\n"
    (System.n_slaves system
    - List.length (Corrective.currently_excluded (System.corrective system)));

  (* The CDN operator re-images the hacked box; the owner ships it a
     fresh checkpoint and readmits it (§3.5). *)
  (match System.readmit_slave system ~slave_id:hacked with
  | Ok () ->
    Printf.printf "edge server %d re-imaged, checkpointed and readmitted (history kept: %b)\n"
      hacked
      (Corrective.is_excluded (System.corrective system) ~slave_id:hacked)
  | Error msg -> Printf.printf "readmission failed: %s\n" msg);
  System.run_for system 30.0;
  print_endline "cdn_catalog OK"
