(* Chaos subsystem: schedule DSL, injector semantics, and the headline
   acceptance scenario — partition every slave, heal, and demand zero
   false accusations, degraded master reads during the blackout,
   breakers closing after the heal, and post-recovery convergence. *)

open Alcotest
module Prng = Secrep_crypto.Prng
module Sim = Secrep_sim.Sim
module Stats = Secrep_sim.Stats
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Config = Secrep_core.Config
module System = Secrep_core.System
module Client = Secrep_core.Client
module Slave = Secrep_core.Slave
module Master = Secrep_core.Master
module Corrective = Secrep_core.Corrective
module Catalog = Secrep_workload.Catalog
module Schedule = Secrep_chaos.Schedule
module Injector = Secrep_chaos.Injector
module Scenario = Secrep_check.Scenario
module Harness = Secrep_check.Harness
module Invariant = Secrep_check.Invariant

let int_t = int
let bool_t = bool

(* ---------------- schedule DSL ---------------- *)

let test_parse_roundtrip () =
  let text =
    "# comment\n\
     at 5.0 cut slave 2\n\
     at 9 heal slave 2\n\
     at 12 crash master 0\n\
     at 14 crash slave 1\n\
     at 18 recover slave 1\n\
     at 20 loss 0.3\n\
     at 30 loss normal\n\
     at 40 latency x4\n\
     at 50 latency normal\n\
     at 60 cut auditor\n\
     at 61 heal auditor\n\
     at 62 cut client 1\n\
     at 63 heal client 1\n\
     at 64 cut master 1\n\
     at 65 heal master 1\n"
  in
  match Schedule.parse text with
  | Error msg -> failf "parse failed: %s" msg
  | Ok schedule ->
    check int_t "all lines parsed" 15 (List.length schedule);
    (* print -> parse is the identity on the parsed form *)
    (match Schedule.parse (Schedule.to_string schedule) with
    | Error msg -> failf "re-parse failed: %s" msg
    | Ok again -> check bool_t "round trip" true (schedule = again))

let test_parse_errors () =
  let bad = [ "at x cut slave 1"; "at 5 cut slave"; "at 5 frobnicate 3"; "cut slave 1" ] in
  List.iter
    (fun line ->
      match Schedule.parse line with
      | Ok _ -> failf "expected parse error for %S" line
      | Error msg -> check bool_t "error names line 1" true (String.length msg > 0))
    bad

let test_validate_ranges () =
  let sched = [ { Schedule.time = 5.0; action = Schedule.Cut_slave 7 } ] in
  (match Schedule.validate ~n_slaves:3 sched with
  | Ok () -> fail "slave 7 should be out of range for 3 slaves"
  | Error _ -> ());
  (match Schedule.validate ~n_slaves:8 sched with
  | Ok () -> ()
  | Error msg -> failf "slave 7 in range for 8 slaves: %s" msg);
  match Schedule.validate [ { Schedule.time = -1.0; action = Schedule.Cut_auditor } ] with
  | Ok () -> fail "negative time should be rejected"
  | Error _ -> ()

let test_random_deterministic_and_self_healing () =
  let draw () =
    Schedule.random ~rng:(Prng.create ~seed:99L) ~duration:100.0 ~n_slaves:6 ~n_masters:2
      ~n_clients:4 ~intensity:2.0 ()
  in
  let a = draw () and b = draw () in
  check bool_t "same seed, same schedule" true (a = b);
  check bool_t "non-empty at intensity 2" true (List.length a > 0);
  List.iter
    (fun e ->
      check bool_t "every entry inside [0, 0.9 * duration]" true
        (e.Schedule.time >= 0.0 && e.Schedule.time <= 90.0))
    a;
  (* Every disruption heals: cuts are matched by heals, crashes by
     recovers, buckets by their normals. *)
  let balance = Hashtbl.create 8 in
  let bump k d =
    let v = match Hashtbl.find_opt balance k with Some v -> v | None -> 0 in
    Hashtbl.replace balance k (v + d)
  in
  List.iter
    (fun e ->
      match e.Schedule.action with
      | Schedule.Cut_slave i -> bump (`Slave i) 1
      | Schedule.Heal_slave i -> bump (`Slave i) (-1)
      | Schedule.Crash_slave i -> bump (`Churn i) 1
      | Schedule.Recover_slave i -> bump (`Churn i) (-1)
      | Schedule.Cut_master i -> bump (`Master i) 1
      | Schedule.Heal_master i -> bump (`Master i) (-1)
      | Schedule.Cut_client i -> bump (`Client i) 1
      | Schedule.Heal_client i -> bump (`Client i) (-1)
      | Schedule.Cut_auditor -> bump `Auditor 1
      | Schedule.Heal_auditor -> bump `Auditor (-1)
      | Schedule.Loss_burst _ -> bump `Loss 1
      | Schedule.Loss_normal -> bump `Loss (-1)
      | Schedule.Latency_spike _ -> bump `Latency 1
      | Schedule.Latency_normal -> bump `Latency (-1)
      | Schedule.Duplicate_burst _ -> bump `Duplicate 1
      | Schedule.Duplicate_normal -> bump `Duplicate (-1)
      | Schedule.Reorder_burst _ -> bump `Reorder 1
      | Schedule.Reorder_normal -> bump `Reorder (-1)
      | Schedule.Bitflip_burst _ -> bump `Bitflip 1
      | Schedule.Bitflip_normal -> bump `Bitflip (-1)
      | Schedule.Crash_master _ -> ())
    a;
  Hashtbl.iter (fun _ v -> check int_t "window closed" 0 v) balance

let test_rolling_partition_shape () =
  let sched = Schedule.rolling_partition ~n_slaves:3 ~start:5.0 ~interval:0.5 ~outage:20.0 in
  check int_t "two entries per slave" 6 (List.length sched);
  let cuts =
    List.filter (fun e -> match e.Schedule.action with Schedule.Cut_slave _ -> true | _ -> false) sched
  in
  check int_t "one cut per slave" 3 (List.length cuts)

(* ---------------- shared system builder ---------------- *)

let build_system ?(n_masters = 1) ?(slaves_per_master = 3) ?(n_clients = 2)
    ?(config = Config.default) ~seed () =
  let config =
    Config.validate_exn
      { config with Config.max_latency = 1.0; keepalive_period = 0.3 }
  in
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config
      ~net:System.lan_net ~seed ()
  in
  let content = Catalog.product_catalog (Prng.create ~seed:7L) ~n:6 in
  System.load_content system content;
  (system, List.map fst content)

(* ---------------- injector ---------------- *)

let test_injector_counts_and_skips () =
  let system, _ = build_system ~seed:5L () in
  let sched =
    [
      { Schedule.time = 1.0; action = Schedule.Crash_slave 0 };
      (* crashing an already-crashed slave is a no-op, not an error *)
      { Schedule.time = 2.0; action = Schedule.Crash_slave 0 };
      { Schedule.time = 3.0; action = Schedule.Recover_slave 0 };
    ]
  in
  Injector.apply system sched;
  System.run_for system 10.0;
  check int_t "all actions fired" 3 (Injector.applied_actions system);
  check int_t "duplicate crash skipped" 1
    (Stats.get (System.stats system) "chaos.skipped_actions");
  check bool_t "slave back in service" false (System.is_crashed system ~slave_id:0)

let test_injector_rejects_out_of_range () =
  let system, _ = build_system ~seed:6L () in
  match
    Injector.apply system [ { Schedule.time = 1.0; action = Schedule.Cut_slave 99 } ]
  with
  | () -> fail "expected Invalid_argument for slave 99"
  | exception Invalid_argument _ -> ()

(* ---------------- master crash re-homing + reinstate ---------------- *)

let test_master_crash_rehoming_and_reinstate () =
  let system, keys = build_system ~n_masters:2 ~slaves_per_master:1 ~n_clients:1 ~seed:11L () in
  let sim = System.sim system in
  let keys = Array.of_list keys in
  (* Commit a write so there is post-bootstrap state to reinstate. *)
  ignore
    (Sim.schedule_at sim ~time:1.0 (fun () ->
         System.write system ~client:0
           (Oplog.Set_field { key = keys.(0); field = "stock"; value = Value.Int 1 })
           ~on_done:(fun _ -> ())));
  (* Kill master 0; its slave re-homes to master 1.  Then churn that
     slave: the recovery checkpoint must come from a surviving master. *)
  ignore (Sim.schedule_at sim ~time:5.0 (fun () -> System.crash_master system 0));
  ignore (Sim.schedule_at sim ~time:8.0 (fun () -> System.crash_slave system ~slave_id:0));
  let recover_result = ref (Error "not attempted") in
  ignore
    (Sim.schedule_at sim ~time:12.0 (fun () ->
         recover_result := System.recover_slave system ~slave_id:0));
  System.run_for system 30.0;
  (match !recover_result with
  | Ok () -> ()
  | Error msg -> failf "recover after master crash failed: %s" msg);
  check bool_t "slave re-homed to a live master" true
    (Master.is_alive (System.master system (System.master_of_slave system 0)));
  check int_t "reinstated at the surviving master's version"
    (Master.version (System.master system (System.master_of_slave system 0)))
    (Slave.version (System.slave system 0));
  check int_t "benign churn never accuses" 0
    (List.length (Corrective.events (System.corrective system)))

(* ---------------- the acceptance scenario ---------------- *)

(* Partition every slave (staggered, overlapping into a full blackout),
   keep reading throughout, then heal.  Demands:
     - availability: every read completes,
     - degraded reads served by the trusted master during the blackout,
     - zero false accusations despite timeouts and churn,
     - breakers close again after the heal,
     - healed slaves converge back to the committed version. *)
let test_rolling_blackout_acceptance () =
  let config =
    {
      Config.default with
      Config.double_check_probability = 0.0;
      breaker_cooldown = 5.0;
    }
  in
  let system, keys = build_system ~config ~seed:21L () in
  let sim = System.sim system in
  let keys = Array.of_list keys in
  let n_slaves = System.n_slaves system in
  Injector.apply system
    (Schedule.rolling_partition ~n_slaves ~start:5.0 ~interval:0.5 ~outage:25.0);
  (* Write during the blackout so healed slaves are stale and must
     resync to converge. *)
  ignore
    (Sim.schedule_at sim ~time:10.0 (fun () ->
         System.write system ~client:0
           (Oplog.Set_field { key = keys.(0); field = "stock"; value = Value.Int 77 })
           ~on_done:(fun _ -> ())));
  let issued = ref 0 and completed = ref 0 and by_master = ref 0 in
  for i = 0 to 54 do
    ignore
      (Sim.schedule_at sim ~time:(1.0 +. float_of_int i) (fun () ->
           incr issued;
           System.read system ~client:(i mod System.n_clients system)
             (Query.point_read keys.(i mod Array.length keys))
             ~on_done:(fun report ->
               incr completed;
               match report.Client.outcome with
               | `Served_by_master _ -> incr by_master
               | `Accepted _ | `Gave_up -> ())))
  done;
  System.run_for system 120.0;
  let stats = System.stats system in
  check int_t "availability: every read completed" !issued !completed;
  check bool_t "degraded master reads during the blackout" true (!by_master > 0);
  check int_t "zero false accusations under pure chaos" 0
    (List.length (Corrective.events (System.corrective system)));
  check bool_t "breakers opened during the blackout" true
    (Stats.get stats "client.breaker_opened" > 0);
  check bool_t "breakers closed again after the heal" true
    (Stats.get stats "client.breaker_closed" > 0);
  (* Convergence: every slave is back at its master's version. *)
  for i = 0 to n_slaves - 1 do
    check int_t
      (Printf.sprintf "slave %d converged" i)
      (Master.version (System.master system (System.master_of_slave system i)))
      (Slave.version (System.slave system i))
  done

(* The same shape as a fuzz-harness scenario: chaos windows riding on a
   generated workload, judged by the full invariant set (including the
   availability and recovery-convergence checkers). *)
let test_harness_chaos_scenario_invariants () =
  let scenario =
    {
      Scenario.sys_seed = 4242;
      n_shards = 1;
      n_masters = 1;
      slaves_per_master = 3;
      n_clients = 2;
      n_items = 4;
      max_latency = 1.0;
      keepalive_period = 0.3;
      double_check_p = 0.0;
      audit = true;
      pledge_batch = 1;
      read_nonces = false;
      audit_adaptive = false;
      net = Scenario.Lan;
      faults = [];
      chaos =
        [
          Scenario.Slave_cut { slave = 0; from_time = 5.0; outage = 10.0 };
          Scenario.Slave_churn { slave = 1; from_time = 8.0; outage = 12.0 };
          Scenario.Auditor_cut { from_time = 12.0; outage = 5.0 };
        ];
      ops =
        Scenario.Write { client = 0; key = 0; at = 2.0 }
        :: Scenario.Write { client = 1; key = 1; at = 9.0 }
        :: List.init 20 (fun i ->
               Scenario.Read { client = i mod 2; key = i mod 4; at = 1.0 +. float_of_int i });
    }
  in
  let result =
    match Harness.run scenario with
    | [ result ] -> result
    | results -> failf "expected one shard's result, got %d" (List.length results)
  in
  (match Invariant.check_all Invariant.all result with
  | Ok () -> ()
  | Error msg -> failf "invariant violated under chaos: %s" msg);
  (* The chaos actually happened: partition + crash + recovery events. *)
  let has kind =
    List.exists
      (fun (r : Secrep_sim.Trace.record) -> Secrep_sim.Event.kind r.Secrep_sim.Trace.event = kind)
      result.Harness.events
  in
  check bool_t "partition events in stream" true (has "partition");
  check bool_t "crash events in stream" true (has "node_crashed");
  check bool_t "recovery events in stream" true (has "node_recovered")

let () =
  run "secrep_chaos"
    [
      ( "schedule",
        [
          test_case "parse/print round trip" `Quick test_parse_roundtrip;
          test_case "parse errors" `Quick test_parse_errors;
          test_case "validate ranges" `Quick test_validate_ranges;
          test_case "random deterministic + self-healing" `Quick
            test_random_deterministic_and_self_healing;
          test_case "rolling partition shape" `Quick test_rolling_partition_shape;
        ] );
      ( "injector",
        [
          test_case "counts applied and skipped" `Quick test_injector_counts_and_skips;
          test_case "rejects out-of-range ids" `Quick test_injector_rejects_out_of_range;
        ] );
      ( "resilience",
        [
          test_case "master crash re-homing + reinstate" `Quick
            test_master_crash_rehoming_and_reinstate;
          test_case "rolling blackout acceptance" `Quick test_rolling_blackout_acceptance;
          test_case "harness chaos scenario passes invariants" `Quick
            test_harness_chaos_scenario_invariants;
        ] );
    ]
