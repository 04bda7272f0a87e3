(* Tests for the monitor layer: causal read lineage, the online SLO
   rule engine, the health report, and their agreement with the fuzz
   invariants and the E1 experiment. *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Client = Secrep_core.Client
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Document = Secrep_store.Document
module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage
module Health = Secrep_monitor.Health
module Invariant = Secrep_check.Invariant

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let fast_config =
  {
    Config.default with
    Config.max_latency = 2.0;
    keepalive_period = 0.5;
    double_check_probability = 0.05;
    audit_lag_slack = 0.5;
  }

let catalog =
  List.init 20 (fun i ->
      ( Printf.sprintf "item:%03d" i,
        Document.of_fields
          [
            ("name", Value.String (Printf.sprintf "item number %d" i));
            ("price", Value.Float (float_of_int (i * 10)));
          ] ))

let make_system ?(config = fast_config) ?(n_masters = 2) ?(slaves_per_master = 2)
    ?(n_clients = 4) ?(seed = 11L) () =
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config ~net:System.lan_net ~seed ()
  in
  System.load_content system catalog;
  system

(* Subscribe lineage + SLO to the live stream, like the CLI does. *)
let attach ?(config = fast_config) system =
  let slo = Slo.create ~trace:(System.trace system) ~config:(Slo.config config) () in
  let lineage = Lineage.create () in
  Trace.on_emit (System.trace system) (fun r ->
      Lineage.observe lineage r;
      Slo.observe slo r);
  (slo, lineage)

let finalize system slo =
  Slo.finalize slo ~now:(Sim.now (System.sim system))

let issue_reads ?level ?mode ?(client = fun i -> i mod 4) system ~n ~spacing =
  let reports = ref [] in
  let sim = System.sim system in
  for i = 0 to n - 1 do
    ignore
      (Sim.schedule sim ~delay:(spacing *. float_of_int i) (fun () ->
           System.read system ~client:(client i) ?level ?mode
             (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  reports

(* ---------------- clean run ---------------- *)

let test_clean_run_zero_alerts () =
  let system = make_system () in
  let slo, lineage = attach system in
  System.write system ~client:1
    (Oplog.Set_field { key = "item:001"; field = "price"; value = Value.Float 42.0 })
    ~on_done:(fun _ -> ());
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 60.0;
  finalize system slo;
  check int_t "reads completed" 40 (List.length !reports);
  check int_t "no alerts on a clean run" 0 (List.length (Slo.alerts slo));
  let s = Lineage.summarize lineage in
  check int_t "lineage issued" 40 s.Lineage.issued;
  check int_t "lineage completed" 40 s.Lineage.completed;
  check int_t "lineage accepted" 40 s.Lineage.accepted;
  check int_t "nothing outstanding" 0 s.Lineage.outstanding;
  check int_t "nothing lied" 0 s.Lineage.lied_served;
  check bool_t "e2e p99 positive" true (s.Lineage.e2e_p99 > 0.0);
  (* every request has a critical path: all three phases fully counted *)
  List.iter
    (fun (p : Lineage.phase) ->
      check int_t (p.Lineage.phase ^ " counted") 40 p.Lineage.count)
    s.Lineage.critical_path;
  let health = Health.build ~slo ~lineage () in
  check bool_t "healthy" true (Health.healthy health);
  (* lineage JSONL: one object per request, parseable *)
  let lines = String.split_on_char '\n' (String.trim (Lineage.jsonl lineage)) in
  check int_t "one lineage line per read" 40 (List.length lines);
  List.iter
    (fun line ->
      match Export.Json.parse line with
      | Ok (Export.Json.Obj fields) ->
        check bool_t "has request id" true (List.mem_assoc "request" fields)
      | Ok _ -> Alcotest.fail "lineage line is not an object"
      | Error msg -> Alcotest.fail msg)
    lines;
  (* health JSON round-trips through the parser *)
  match Export.Json.parse (Export.Json.to_string (Health.to_json health)) with
  | Ok (Export.Json.Obj fields) ->
    check bool_t "healthy in json" true
      (List.assoc_opt "healthy" fields = Some (Export.Json.Bool true))
  | Ok _ -> Alcotest.fail "health json is not an object"
  | Error msg -> Alcotest.fail msg

(* ---------------- lineage under attack ---------------- *)

let test_lineage_attack_detection () =
  (* A liar is convicted by the auditor; lineage must attribute the
     lied reads to it and report a detection latency. *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let slo, lineage = attach ~config system in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads ~client:(fun _ -> 0) system ~n:10 ~spacing:0.3 in
  System.run_for system 120.0;
  finalize system slo;
  check int_t "reads completed" 10 (List.length !reports);
  check bool_t "auditor convicted the liar" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  Lineage.finalize lineage;
  let s = Lineage.summarize lineage in
  check bool_t "lied reads recorded" true (s.Lineage.lied_served > 0);
  check bool_t "some lied reads marked detected" true (s.Lineage.detected_lied > 0);
  check bool_t "detection latency positive" true (s.Lineage.detection_max > 0.0);
  let row =
    match
      List.find_opt (fun (r : Lineage.slave_row) -> r.Lineage.slave = victim)
        (Lineage.slave_rows lineage)
    with
    | Some r -> r
    | None -> Alcotest.fail "victim has no slave row"
  in
  check bool_t "victim served reads" true (row.Lineage.served > 0);
  check bool_t "victim lied" true (row.Lineage.lied_served > 0);
  check bool_t "victim accused" true (row.Lineage.first_accused_at <> None);
  check bool_t "reads-before-detection counted" true
    (row.Lineage.reads_before_detection <> None);
  (* the conviction arrived inside the audit budget: no detection alert *)
  check bool_t "no detection alert (caught in time)" true
    (not (Slo.was_raised slo "detection"))

let test_undetected_liar_raises_detection () =
  (* No double-checks, no audit: nothing ever accuses the liar, so the
     SLO monitor must — online once the budget lapses. *)
  let config =
    { fast_config with Config.double_check_probability = 0.0; audit_enabled = false }
  in
  let system = make_system ~config () in
  let slo, _lineage = attach ~config system in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads ~client:(fun _ -> 0) system ~n:10 ~spacing:0.3 in
  System.run_for system 60.0;
  finalize system slo;
  check int_t "reads completed" 10 (List.length !reports);
  check bool_t "detection alert raised" true (Slo.was_raised slo "detection");
  check bool_t "still active at end of run" true
    (List.exists (fun (a : Slo.alert) -> a.Slo.rule = "detection") (Slo.active slo));
  (* the raise was emitted into the live trace as a typed event *)
  check bool_t "alert_raised event in trace" true
    (Trace.count_kind (System.trace system) ~kind:"alert_raised" > 0)

(* ---------------- blackout ---------------- *)

let test_blackout_raises_availability_and_staleness () =
  let system = make_system () in
  let slo, lineage = attach system in
  let sim = System.sim system in
  (* cut every slave at t=5, heal at t=60 *)
  let n_slaves = System.n_slaves system in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         for s = 0 to n_slaves - 1 do
           System.set_slave_connectivity system ~slave_id:s ~up:false
         done));
  ignore
    (Sim.schedule sim ~delay:60.0 (fun () ->
         for s = 0 to n_slaves - 1 do
           System.set_slave_connectivity system ~slave_id:s ~up:true
         done));
  (* a write during the blackout cannot reach any slave: staleness *)
  ignore
    (Sim.schedule sim ~delay:8.0 (fun () ->
         System.write system ~client:1
           (Oplog.Set_field { key = "item:002"; field = "price"; value = Value.Float 7.0 })
           ~on_done:(fun _ -> ())));
  let reports = issue_reads system ~n:30 ~spacing:1.0 in
  System.run_for system 180.0;
  finalize system slo;
  check int_t "reads completed" 30 (List.length !reports);
  check bool_t "some reads went degraded" true
    (List.exists
       (fun r -> match r.Client.outcome with `Served_by_master _ -> true | _ -> false)
       !reports);
  check bool_t "availability alert raised" true (Slo.was_raised slo "availability");
  check bool_t "staleness alert raised" true (Slo.was_raised slo "staleness");
  (* degraded reads show up in the lineage summary too *)
  let s = Lineage.summarize lineage in
  check bool_t "degraded lineage" true (s.Lineage.degraded > 0);
  (* availability cleared once the blackout healed and reads recovered *)
  let avail =
    List.filter (fun (a : Slo.alert) -> a.Slo.rule = "availability") (Slo.alerts slo)
  in
  check bool_t "availability eventually cleared" true
    (List.for_all (fun (a : Slo.alert) -> a.Slo.cleared_at <> None) avail)

(* ---------------- synthetic rule checks ---------------- *)

let record ~time event = { Trace.time; source = "test"; event }

let synthetic_slo () =
  Slo.create ~config:(Slo.config (Config.validate_exn { Config.default with Config.max_latency = 5.0 })) ()

let test_synthetic_write_spacing () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo (record ~time:1.0 (Event.Write_committed { master = 0; version = 2 }));
  check bool_t "write-spacing raised" true (Slo.was_raised slo "write-spacing");
  (* a different master committing close in time is fine *)
  let slo2 = synthetic_slo () in
  Slo.observe slo2 (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo2 (record ~time:1.0 (Event.Write_committed { master = 1; version = 2 }));
  check bool_t "per-master only" true (not (Slo.was_raised slo2 "write-spacing"))

let test_synthetic_staleness_and_clear () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo
    (record ~time:1.0 (Event.State_update_applied { slave = 0; from_version = 0; to_version = 1 }));
  Slo.observe slo (record ~time:10.0 (Event.Write_committed { master = 0; version = 2 }));
  Slo.observe slo
    (record ~time:10.5 (Event.State_update_applied { slave = 0; from_version = 1; to_version = 2 }));
  (* a pledge for version 1 verified long after commit(2) + max_latency *)
  Slo.observe slo
    (record ~time:40.0
       (Event.Pledge_verified
          { client = 0; request = 1; slave = 0; version = 1; ok = true; reason = "" }));
  check bool_t "staleness raised" true (Slo.was_raised slo "staleness");
  (* pulse decays after a quiet window *)
  Slo.observe slo (record ~time:200.0 (Event.Keepalive_sent { master = 0; version = 2 }));
  check bool_t "staleness cleared" true
    (not (List.exists (fun (a : Slo.alert) -> a.Slo.rule = "staleness") (Slo.active slo)));
  let a =
    List.find (fun (a : Slo.alert) -> a.Slo.rule = "staleness") (Slo.alerts slo)
  in
  check bool_t "cleared_at recorded" true (a.Slo.cleared_at <> None)

let test_synthetic_false_accusation () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:1.0 (Event.Audit_conviction { slave = 3; version = 1 }));
  check bool_t "false-accusation raised" true (Slo.was_raised slo "false-accusation");
  (* an accusation of a slave that did lie is legitimate *)
  let slo2 = synthetic_slo () in
  Slo.observe slo2
    (record ~time:0.5
       (Event.Pledge_signed { slave = 3; request = 1; version = 1; lied = true }));
  Slo.observe slo2 (record ~time:1.0 (Event.Audit_conviction { slave = 3; version = 1 }));
  check bool_t "legitimate accusation passes" true
    (not (Slo.was_raised slo2 "false-accusation"));
  check bool_t "accused liar needs no detection alert" true
    (not (Slo.was_raised slo2 "detection"))

let test_synthetic_availability_burn () =
  let slo = synthetic_slo () in
  for i = 1 to 12 do
    let t = float_of_int i *. 0.1 in
    Slo.observe slo
      (record ~time:t (Event.Read_issued { client = 0; request = i; mode = "single" }));
    Slo.observe slo
      (record ~time:(t +. 0.01)
         (Event.Read_answered
            { client = 0; request = i; slave = -1; outcome = "gave-up"; version = -1; latency = 0.01 }))
  done;
  check bool_t "availability burn raised" true (Slo.was_raised slo "availability");
  (* sensitive reads served by the master are not "degraded" *)
  let slo2 = synthetic_slo () in
  for i = 1 to 12 do
    let t = float_of_int i *. 0.1 in
    Slo.observe slo2
      (record ~time:t (Event.Read_issued { client = 0; request = i; mode = "sensitive" }));
    Slo.observe slo2
      (record ~time:(t +. 0.01)
         (Event.Read_answered
            { client = 0; request = i; slave = -1; outcome = "by-master"; version = 1; latency = 0.01 }))
  done;
  check bool_t "sensitive by-master is not bad" true
    (not (Slo.was_raised slo2 "availability"))

(* Allocation is deterministic, so this bounds the engine's per-event
   cost without timing anything: with thousands of latency samples in
   the window, an event must not cost a copy of the window. *)
let test_observe_allocation_bounded () =
  let slo = synthetic_slo () in
  let rng = Secrep_crypto.Prng.create ~seed:3L in
  let request = ref 0 in
  (* 200 reads/s with sub-second latencies (under the 5 s threshold, so
     no alert is raised): the 30 s window holds about 6,000 samples. *)
  let read () =
    incr request;
    let t = float_of_int !request *. 0.005 in
    let latency = Secrep_crypto.Prng.float rng in
    Slo.observe slo
      (record ~time:t (Event.Read_issued { client = 0; request = !request; mode = "single" }));
    Slo.observe slo
      (record ~time:t
         (Event.Read_answered
            { client = 0; request = !request; slave = 0; outcome = "accepted"; version = 1; latency }))
  in
  for _ = 1 to 8_000 do
    read ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    read ()
  done;
  let per_event = (Gc.minor_words () -. w0) /. 2_000.0 in
  check bool_t
    (Printf.sprintf "%.0f minor words per event (limit 1000)" per_event)
    true (per_event <= 1_000.0);
  check int_t "no alerts" 0 (List.length (Slo.alerts slo))

(* ---------------- invariant mapping ---------------- *)

let test_rule_coverage_mapping () =
  let expected =
    [
      ("detection", Some "detection");
      ("no-false-accusation", Some "false-accusation");
      ("staleness", Some "staleness");
      ("write-spacing", Some "write-spacing");
      ("pledge-validity", None);
      ("availability", Some "availability");
      ("recovery-convergence", Some "recovery");
      ("differential-audit", None);
      ("replay-rejection", None);
      ("equivocation-detection", None);
      ("adaptive-no-worse", None);
      ("parallel-determinism", None);
      ("alert-coverage", None);
    ]
  in
  (* the mapping table stays in lockstep with the checker registry *)
  List.iter
    (fun (c : Invariant.checker) ->
      match List.assoc_opt c.Invariant.name expected with
      | None -> Alcotest.fail ("unmapped invariant " ^ c.Invariant.name)
      | Some rule ->
        check bool_t (c.Invariant.name ^ " maps as expected") true
          (Slo.rule_for_invariant c.Invariant.name = rule);
        (match rule with
        | Some r ->
          check bool_t (r ^ " is a known rule") true (List.mem r Slo.rule_names)
        | None -> ()))
    Invariant.all;
  check int_t "mapping table covers every checker" (List.length Invariant.all)
    (List.length expected)

(* ---------------- E1 agreement ---------------- *)

(* Replicates bench/exp1_detection.ml's trial loop (same config, same
   seed derivation) with lineage attached: the monitor's
   reads-before-detection count for the victim must agree with the
   count E1 reports — E1 counts the catching read itself, lineage
   counts the accepted reads served before it. *)
let test_e1_agreement () =
  let p = 0.2 in
  let seed = Int64.of_int ((1 * 7919) + (3 * 1009) + 1) in
  let config =
    {
      Config.default with
      Config.max_latency = 5.0;
      keepalive_period = 1.0;
      double_check_probability = p;
      audit_lag_slack = 1.0;
      audit_enabled = false;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:2 ~config
      ~net:System.lan_net ~seed ()
  in
  let lineage = Lineage.create () in
  Trace.on_emit (System.trace system) (fun r -> Lineage.observe lineage r);
  let g = Secrep_crypto.Prng.create ~seed:(Int64.add seed 77L) in
  System.load_content system (Secrep_workload.Catalog.product_catalog g ~n:50);
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let cap = int_of_float (20.0 /. p) + 50 in
  let count = ref 0 in
  let caught_at = ref None in
  let rec issue () =
    if !caught_at = None && !count < cap then begin
      incr count;
      System.read system ~client:0
        (Query.point_read (Printf.sprintf "product:%05d" (!count mod 50)))
        ~on_done:(fun r ->
          (match r.Client.caught_slave with
          | Some s when s = victim -> caught_at := Some !count
          | Some _ | None ->
            if Corrective.is_excluded (System.corrective system) ~slave_id:victim then
              caught_at := Some !count);
          if !caught_at = None && !count < cap then
            ignore (Sim.schedule (System.sim system) ~delay:0.01 (fun () -> issue ())))
    end
  in
  issue ();
  let deadline = (0.1 *. float_of_int cap) +. 120.0 in
  while !caught_at = None && !count < cap && Sim.now (System.sim system) < deadline do
    System.run_for system 5.0
  done;
  System.run_for system 2.0;
  let e1_count =
    match !caught_at with
    | Some n -> n
    | None -> Alcotest.fail "E1 trial never caught the liar"
  in
  Lineage.finalize lineage;
  let row =
    match
      List.find_opt (fun (r : Lineage.slave_row) -> r.Lineage.slave = victim)
        (Lineage.slave_rows lineage)
    with
    | Some r -> r
    | None -> Alcotest.fail "victim has no lineage row"
  in
  (match row.Lineage.reads_before_detection with
  | Some n ->
    (* E1's count includes the read whose double-check caught the slave
       (that read is rejected, not accepted): lineage sees one fewer. *)
    check int_t "lineage agrees with E1's reads-until-detection" (e1_count - 1) n
  | None -> Alcotest.fail "lineage did not record a detection");
  check bool_t "detection latency recorded" true (row.Lineage.detection_latency <> None)

let () =
  Alcotest.run "secrep_monitor"
    [
      ( "slo",
        [
          Alcotest.test_case "clean run: zero alerts" `Quick test_clean_run_zero_alerts;
          Alcotest.test_case "undetected liar raises detection" `Quick
            test_undetected_liar_raises_detection;
          Alcotest.test_case "blackout raises availability+staleness" `Quick
            test_blackout_raises_availability_and_staleness;
          Alcotest.test_case "synthetic write-spacing" `Quick test_synthetic_write_spacing;
          Alcotest.test_case "synthetic staleness + clear" `Quick
            test_synthetic_staleness_and_clear;
          Alcotest.test_case "synthetic false-accusation" `Quick
            test_synthetic_false_accusation;
          Alcotest.test_case "synthetic availability burn" `Quick
            test_synthetic_availability_burn;
          Alcotest.test_case "observe allocation bounded" `Quick
            test_observe_allocation_bounded;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "attack detection lifecycle" `Quick
            test_lineage_attack_detection;
          Alcotest.test_case "agrees with E1" `Quick test_e1_agreement;
        ] );
      ( "coverage",
        [ Alcotest.test_case "invariant-to-rule mapping" `Quick test_rule_coverage_mapping ] );
    ]
