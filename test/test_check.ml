(* Tests for the property-based testing library (generators, shrinkers,
   the property runner) and the simulation fuzz harness built on it:
   deterministic replay, the paper-level invariants under forced
   attacks, and counterexample shrinking quality. *)

open Secrep_check
module Fault = Secrep_core.Fault

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- Gen ---------------- *)

let test_gen_deterministic () =
  let g = Gen.list_size (Gen.int_range 0 20) (Gen.int_range (-50) 50) in
  check bool_t "same seed, same list" true (Gen.run ~seed:7L g = Gen.run ~seed:7L g);
  check bool_t "different seeds diverge somewhere" true
    (List.exists
       (fun seed -> Gen.run ~seed g <> Gen.run ~seed:7L g)
       [ 8L; 9L; 10L; 11L; 12L ])

let test_gen_ranges () =
  let g = Gen.int_range 3 9 in
  for seed = 0 to 200 do
    let v = Gen.run ~seed:(Int64.of_int seed) g in
    if v < 3 || v > 9 then Alcotest.failf "int_range out of range: %d" v
  done;
  let f = Gen.float_range 0.5 2.5 in
  for seed = 0 to 200 do
    let v = Gen.run ~seed:(Int64.of_int seed) f in
    if v < 0.5 || v >= 2.5 then Alcotest.failf "float_range out of range: %f" v
  done

let test_gen_frequency () =
  (* Weight 0 on the left arm means it is never chosen... weights must
     be positive, so instead check a 1:9 split lands mostly right. *)
  let g = Gen.frequency [ (1, Gen.return `Rare); (9, Gen.return `Common) ] in
  let rare = ref 0 in
  for seed = 0 to 999 do
    if Gen.run ~seed:(Int64.of_int seed) g = `Rare then incr rare
  done;
  check bool_t "rare arm is rare but present" true (!rare > 0 && !rare < 400)

(* ---------------- Shrink ---------------- *)

let test_shrink_int_towards () =
  let cands = List.of_seq (Shrink.int_towards ~target:0 100) in
  check bool_t "boldest candidate first" true (List.hd cands = 0);
  check bool_t "all between target and value" true (List.for_all (fun c -> c >= 0 && c < 100) cands);
  check bool_t "fixed point shrinks to nothing" true
    (List.of_seq (Shrink.int_towards ~target:5 5) = []);
  let up = List.of_seq (Shrink.int_towards ~target:10 2) in
  check bool_t "works upward too" true (List.hd up = 10 && List.for_all (fun c -> c > 2 && c <= 10) up)

let test_shrink_list () =
  let cands = List.of_seq (Shrink.list ~elt:(Shrink.int_towards ~target:0) [ 4; 7 ]) in
  check bool_t "empty list first" true (List.hd cands = []);
  check bool_t "drops single elements" true (List.mem [ 4 ] cands && List.mem [ 7 ] cands);
  check bool_t "shrinks elements in place" true (List.mem [ 0; 7 ] cands && List.mem [ 4; 0 ] cands);
  check bool_t "empty list has no candidates" true (List.of_seq (Shrink.list []) = [])

(* ---------------- Prop ---------------- *)

let test_prop_pass () =
  match
    Prop.check ~runs:50 ~seed:1L ~gen:(Gen.int_range 0 10) ~shrink:Shrink.nothing (fun v ->
        if v <= 10 then Ok () else Error "impossible")
  with
  | Prop.Pass { runs } -> check int_t "all runs executed" 50 runs
  | Prop.Fail _ -> Alcotest.fail "property should hold"

let test_prop_shrinks_to_minimum () =
  (* sum >= 30 fails; the greedy shrinker should land on a 1-minimal
     list: dropping any element or shrinking any element passes. *)
  let gen = Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 20) in
  let shrink = Shrink.list ~elt:(Shrink.int_towards ~target:0) in
  let sum = List.fold_left ( + ) 0 in
  let prop l = if sum l >= 30 then Error "sum too large" else Ok () in
  match Prop.check ~runs:200 ~seed:3L ~gen ~shrink prop with
  | Prop.Pass _ -> Alcotest.fail "expected a failure"
  | Prop.Fail f ->
    check bool_t "original fails" true (prop f.Prop.original <> Ok ());
    check bool_t "shrunk fails" true (prop f.Prop.shrunk <> Ok ());
    check bool_t "shrunk no bigger than original" true
      (List.length f.Prop.shrunk <= List.length f.Prop.original);
    check bool_t "1-minimal: dropping any element passes" true
      (List.for_all
         (fun i -> prop (List.filteri (fun j _ -> j <> i) f.Prop.shrunk) = Ok ())
         (List.init (List.length f.Prop.shrunk) Fun.id));
    check bool_t "replay seed regenerates the original" true
      (Gen.run ~seed:f.Prop.seed gen = f.Prop.original)

let test_prop_respects_shrink_cap () =
  let gen = Gen.int_range 1000 100000 in
  let prop v = if v >= 1 then Error "always fails" else Ok () in
  match
    Prop.check ~runs:1 ~max_shrink_steps:2 ~seed:5L ~gen
      ~shrink:(Shrink.int_towards ~target:1) prop
  with
  | Prop.Pass _ -> Alcotest.fail "expected a failure"
  | Prop.Fail f -> check bool_t "step cap respected" true (f.Prop.shrink_steps <= 2)

(* ---------------- Scenario ---------------- *)

let test_scenario_normalize_idempotent () =
  for seed = 0 to 49 do
    let s = Gen.run ~seed:(Int64.of_int seed) Scenario.gen in
    check bool_t "normalize is idempotent" true
      (Scenario.to_string (Scenario.normalize s) = Scenario.to_string s)
  done

let test_scenario_shrink_stays_normal () =
  let s = Gen.run ~seed:11L Scenario.gen in
  Seq.iter
    (fun c ->
      check bool_t "shrink candidates are normalized" true
        (Scenario.to_string (Scenario.normalize c) = Scenario.to_string c))
    (Scenario.shrink s)

(* ---------------- Harness: deterministic replay ---------------- *)

(* The result of a one-shard scenario. *)
let run1 scenario =
  match Harness.run scenario with
  | [ result ] -> result
  | results -> Alcotest.failf "expected one shard's result, got %d" (List.length results)

let test_harness_replay_identical () =
  (* Satellite: two runs from the same seed produce identical event
     streams, bit for bit, shard by shard. *)
  List.iter
    (fun seed ->
      let scenario = Gen.run ~seed Scenario.gen in
      let a = Harness.run scenario in
      let b = Harness.run scenario in
      check (Alcotest.list string_t)
        (Printf.sprintf "event streams equal for seed %Ld" seed)
        (List.map Harness.events_digest a) (List.map Harness.events_digest b);
      check (Alcotest.list int_t) "same number of events"
        (List.map (fun r -> List.length r.Harness.events) a)
        (List.map (fun r -> List.length r.Harness.events) b);
      check bool_t "same accepted reads" true
        (List.map (fun r -> r.Harness.accepted) a = List.map (fun r -> r.Harness.accepted) b))
    [ 1L; 2L; 17L; 23L ]

let test_fuzz_campaign_deterministic () =
  let run () = Fuzz.run ~runs:10 ~seed:42L () in
  match (run (), run ()) with
  | Fuzz.Passed { runs = a }, Fuzz.Passed { runs = b } -> check int_t "same pass" a b
  | Fuzz.Failed { failure = a; _ }, Fuzz.Failed { failure = b; _ } ->
    check bool_t "same failure" true
      (a.Prop.seed = b.Prop.seed
      && Scenario.to_string a.Prop.shrunk = Scenario.to_string b.Prop.shrunk)
  | _ -> Alcotest.fail "campaign outcomes diverged between identical runs"

(* ---------------- Invariants under forced attacks ---------------- *)

let attack_scenario ?(pledge_batch = 1) ~sys_seed ~mode () =
  {
    Scenario.sys_seed;
    n_shards = 1;
    n_masters = 1;
    slaves_per_master = 1;
    n_clients = 2;
    n_items = 4;
    max_latency = 1.0;
    keepalive_period = 0.3;
    double_check_p = 0.05;
    audit = true;
    pledge_batch;
    read_nonces = false;
    audit_adaptive = false;
    net = Scenario.Lan;
    faults = [ { Scenario.slave = 0; mode; probability = 1.0; from_time = 0.0 } ];
    chaos = [];
    ops =
      (* A few writes early so a frozen (Stale_state) store diverges,
         then reads spread over the attack window. *)
      [
        Scenario.Write { client = 0; key = 0; at = 0.5 };
        Scenario.Write { client = 1; key = 1; at = 2.0 };
        Scenario.Write { client = 0; key = 2; at = 4.0 };
      ]
      @ List.init 12 (fun i ->
            Scenario.Read { client = i mod 2; key = i mod 4; at = 1.0 +. (0.9 *. float_of_int i) });
  }

(* The headline acceptance test: across >= 100 varied runs with a slave
   forced to lie, every accepted-but-wrong answer is eventually flagged
   (double-check mismatch, audit conviction or exclusion), and the
   attack actually bites (some wrong answers do get accepted). *)
let test_detection_across_100_runs () =
  let total_wrong = ref 0 in
  for i = 0 to 109 do
    let mode = if i mod 2 = 0 then Fault.Corrupt_result else Fault.Stale_state in
    let result = run1 (attack_scenario ~sys_seed:i ~mode ()) in
    total_wrong :=
      !total_wrong
      + List.length (List.filter (fun a -> a.Harness.wrong) result.Harness.accepted);
    match Invariant.detection.Invariant.check result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d (%s): %s" i (if i mod 2 = 0 then "corrupt" else "stale") msg
  done;
  check bool_t "the attack produced accepted wrong answers to detect" true (!total_wrong > 0)

let test_all_invariants_under_attack () =
  for i = 0 to 19 do
    let result =
      run1 (attack_scenario ~sys_seed:(1000 + i) ~mode:Fault.Corrupt_result ())
    in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d: %s" i msg
  done

let test_no_false_accusation_honest_runs () =
  for i = 0 to 19 do
    let s =
      {
        (attack_scenario ~sys_seed:(2000 + i) ~mode:Fault.Corrupt_result ()) with
        Scenario.faults = [];
      }
    in
    let result = run1 s in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "honest run %d: %s" i msg
  done

(* Regression, shrunk from [fuzz --runs 300 --seed 100 --shards 1
   --invariant detection] before the fix (failing seed 187): a
   pledge-replaying slave without read nonces gets a wrong answer
   accepted that no audit can convict — the replayed pledge re-executes
   clean.  Its defense is the nonce ([replay-rejection]), so
   [detection] must not demand a conviction. *)
let test_detection_skips_replay_without_nonces () =
  let scenario =
    {
      Scenario.sys_seed = 490547;
      n_shards = 1;
      n_masters = 1;
      slaves_per_master = 1;
      n_clients = 1;
      n_items = 2;
      max_latency = 5.0;
      keepalive_period = 2.5;
      double_check_p = 0.0;
      audit = true;
      pledge_batch = 1;
      read_nonces = false;
      audit_adaptive = false;
      net = Scenario.Lan;
      faults =
        [ { Scenario.slave = 0; mode = Fault.Replay_pledge; probability = 1.0; from_time = 2.71 } ];
      chaos = [];
      ops =
        [
          Scenario.Read { client = 0; key = 1; at = 7.38 };
          Scenario.Read { client = 0; key = 0; at = 3.88 };
        ];
    }
  in
  let result = run1 scenario in
  check bool_t "a replayed wrong answer was accepted" true
    (List.exists (fun a -> a.Harness.wrong && a.Harness.slave = 0) result.Harness.accepted);
  check bool_t "and no audit convicted the replaying slave" true
    (List.for_all
       (fun (r : Secrep_sim.Trace.record) ->
         match r.Secrep_sim.Trace.event with
         | Secrep_sim.Event.Audit_conviction _ | Secrep_sim.Event.Slave_excluded _ -> false
         | _ -> true)
       result.Harness.events);
  (match Invariant.detection.Invariant.check result with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "detection flagged a nonce-less replay: %s" msg);
  check bool_t "with nonces on, detection still judges the slave" true
    (Invariant.detection.Invariant.check
       { result with Harness.scenario = { scenario with Scenario.read_nonces = true } }
    <> Ok ())

(* Regression: with adaptive sampling at a full budget
   ([audit_fraction = 1.0]), one slave's conviction lowered every other
   slave's audit probability below 1, and a lying pledge from a slave
   nobody suspected was sampled out.  Found by [fuzz --runs 1000
   --shards 1] at seeds 100, 1000 and 3000; each line below is the
   printed replay. *)
let test_full_budget_adaptive_audits_every_read () =
  List.iter
    (fun seed ->
      match Fuzz.run ~runs:1 ~shards:1 ~seed () with
      | Fuzz.Passed _ -> ()
      | Fuzz.Failed { replay; _ } as outcome ->
        Alcotest.failf "%s\n%a" replay Fuzz.pp_outcome outcome)
    [ 457L; 1654L; 3017L ]

(* ---------------- Differential audit ---------------- *)

(* Replay each attacked run's recorded pledge stream through the naive
   per-pledge auditor and through [run_dedup], the live auditor's own
   judgement folded over the stream; demand verdict-for-verdict
   agreement — and make sure the comparison has teeth (some runs
   convict, some pledges settle from the memo). *)
let test_differential_audit_under_attack () =
  let module Audit_core = Secrep_core.Audit_core in
  let caught = ref 0 and dedup_hits = ref 0 and pledges_seen = ref 0 in
  for i = 0 to 29 do
    let mode =
      match i mod 3 with
      | 0 -> Fault.Corrupt_result
      | 1 -> Fault.Stale_state
      | _ -> Fault.Bad_signature
    in
    let pledge_batch = 1 + (i mod 4) in
    let scenario = attack_scenario ~pledge_batch ~sys_seed:(3000 + i) ~mode () in
    (* Even-numbered runs are honest: the attacked runs convict and
       exclude their only slave within a couple of reads, so the honest
       runs supply the long repeated-read pledge streams that give the
       re-execution memo something to deduplicate. *)
    let scenario =
      if i mod 2 = 0 then { scenario with Scenario.faults = [] } else scenario
    in
    let result = run1 scenario in
    pledges_seen := !pledges_seen + List.length result.Harness.pledges;
    (match Invariant.differential_audit.Invariant.check result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d (batch=%d): %s" i pledge_batch msg);
    let naive =
      Audit_core.run_naive ~slave_public:result.Harness.slave_public
        ~reexec:result.Harness.reexec result.Harness.pledges
    in
    let _, memo =
      Audit_core.run_dedup ~slave_public:result.Harness.slave_public
        ~reexec:result.Harness.reexec result.Harness.pledges
    in
    caught :=
      !caught
      + List.length
          (List.filter (fun v -> not (Audit_core.equal_verdict v Audit_core.Ok_pledge)) naive);
    dedup_hits := !dedup_hits + Secrep_store.Audit_index.hits memo.Audit_core.index
  done;
  check bool_t "pledges were recorded" true (!pledges_seen > 0);
  check bool_t "some runs actually convicted" true (!caught > 0);
  check bool_t "the re-execution memo actually deduplicated" true (!dedup_hits > 0)

(* Batched runs satisfy every paper invariant, and batching changes no
   verdicts relative to the semantics the other invariants encode. *)
let test_all_invariants_batched () =
  for i = 0 to 9 do
    let result =
      run1
        (attack_scenario ~pledge_batch:4 ~sys_seed:(4000 + i) ~mode:Fault.Corrupt_result ())
    in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "batched run %d: %s" i msg
  done

(* ---------------- Shrinking a real failure ---------------- *)

(* A deliberately broken checker: it "fails" whenever any read is
   accepted.  Since almost every scenario accepts reads, fuzzing finds a
   "counterexample" immediately and the shrinker must cut it down to a
   minimal scenario that still accepts a read: barely any topology, and
   one or two ops. *)
let inverted_checker =
  {
    Invariant.name = "inverted";
    doc = "deliberately broken: flags any accepted read";
    check =
      (fun result ->
        if result.Harness.accepted <> [] then Error "a read was accepted" else Ok ());
  }

let contains haystack needle =
  let rec go i =
    if i + String.length needle > String.length haystack then false
    else String.sub haystack i (String.length needle) = needle || go (i + 1)
  in
  go 0

let fails_somewhere checker scenario =
  List.exists (fun r -> checker.Invariant.check r <> Ok ()) (Harness.run scenario)

let test_inverted_invariant_shrinks_small () =
  match Fuzz.run ~runs:50 ~invariants:[ inverted_checker ] ~seed:7L () with
  | Fuzz.Passed _ -> Alcotest.fail "inverted invariant should fail fast"
  | Fuzz.Failed { failure = f; replay } as outcome ->
    let s = f.Prop.shrunk in
    check bool_t "<= 3 clients" true (s.Scenario.n_clients <= 3);
    check bool_t "<= 2 slaves" true (s.Scenario.n_masters * s.Scenario.slaves_per_master <= 2);
    check bool_t "<= 5 ops" true (List.length s.Scenario.ops <= 5);
    (* The printed replay seed reproduces the failure exactly. *)
    check bool_t "seed regenerates the original scenario" true
      (Scenario.to_string (Gen.run ~seed:f.Prop.seed Scenario.gen)
      = Scenario.to_string f.Prop.original);
    check bool_t "original still fails" true (fails_somewhere inverted_checker f.Prop.original);
    check bool_t "shrunk still fails" true (fails_somewhere inverted_checker s);
    check bool_t "replay hint names the seed" true
      (contains replay (Printf.sprintf "--seed %Ld" f.Prop.seed));
    let report = Format.asprintf "%a" Fuzz.pp_outcome outcome in
    check bool_t "report shows the replay line" true (contains report "replay:");
    check bool_t "report shows the violation" true (contains report "a read was accepted")

(* A pinned campaign's replay line carries its pins: running exactly
   what the line says fails again on the same scenario, while the
   unpinned generator draws a different one from that seed. *)
let test_pinned_replay_reproduces () =
  let campaign ~seed ~runs ?shards ?slaves_per_master invariants =
    Fuzz.run ~runs ~max_shrink_steps:0 ~invariants ?shards ?slaves_per_master ~seed ()
  in
  match campaign ~seed:7L ~runs:50 ~shards:2 ~slaves_per_master:1 [ inverted_checker ] with
  | Fuzz.Passed _ -> Alcotest.fail "inverted invariant should fail fast"
  | Fuzz.Failed { failure = f; replay } -> (
    List.iter
      (fun pin -> check bool_t ("replay carries " ^ pin) true (contains replay pin))
      [ "--shards 2"; "--replication-factor 1"; "--invariant inverted" ];
    let rec flags = function
      | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        (flag, value) :: flags rest
      | _ :: rest -> flags rest
      | [] -> []
    in
    let flags = flags (String.split_on_char ' ' replay) in
    let int_flag name = Option.map int_of_string (List.assoc_opt name flags) in
    let invariants =
      List.filter_map
        (fun (flag, name) ->
          if flag <> "--invariant" then None
          else
            List.find_opt (fun c -> c.Invariant.name = name) (inverted_checker :: Invariant.all))
        flags
    in
    match
      campaign
        ~seed:(Int64.of_string (List.assoc "--seed" flags))
        ~runs:(Option.get (int_flag "--runs"))
        ?shards:(int_flag "--shards")
        ?slaves_per_master:(int_flag "--replication-factor")
        invariants
    with
    | Fuzz.Passed _ -> Alcotest.failf "the replay line %S passed" replay
    | Fuzz.Failed { failure = g; _ } ->
      check string_t "replay regenerates the failing scenario"
        (Scenario.to_string f.Prop.original) (Scenario.to_string g.Prop.original);
      check bool_t "the pins matter" true
        (Scenario.to_string (Gen.run ~seed:f.Prop.seed Scenario.gen)
        <> Scenario.to_string f.Prop.original))

let test_invariant_named () =
  (match Invariant.named [ "staleness"; "detection" ] with
  | Ok [ a; b ] ->
    check string_t "first" "staleness" a.Invariant.name;
    check string_t "second" "detection" b.Invariant.name
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  (match Invariant.named [] with
  | Ok l -> check int_t "empty selects all" (List.length Invariant.all) (List.length l)
  | Error e -> Alcotest.fail e);
  match Invariant.named [ "bogus" ] with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

let () =
  Alcotest.run "secrep_check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "ranges" `Quick test_gen_ranges;
          Alcotest.test_case "frequency" `Quick test_gen_frequency;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "int_towards" `Quick test_shrink_int_towards;
          Alcotest.test_case "list" `Quick test_shrink_list;
        ] );
      ( "prop",
        [
          Alcotest.test_case "pass" `Quick test_prop_pass;
          Alcotest.test_case "shrinks to 1-minimal" `Quick test_prop_shrinks_to_minimum;
          Alcotest.test_case "respects shrink cap" `Quick test_prop_respects_shrink_cap;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "normalize idempotent" `Quick test_scenario_normalize_idempotent;
          Alcotest.test_case "shrink stays normal" `Quick test_scenario_shrink_stays_normal;
        ] );
      ( "replay",
        [
          Alcotest.test_case "identical event streams" `Quick test_harness_replay_identical;
          Alcotest.test_case "campaign deterministic" `Quick test_fuzz_campaign_deterministic;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "detection across 100+ attacked runs" `Quick
            test_detection_across_100_runs;
          Alcotest.test_case "all invariants under attack" `Quick test_all_invariants_under_attack;
          Alcotest.test_case "honest runs never accused" `Quick
            test_no_false_accusation_honest_runs;
          Alcotest.test_case "named lookup" `Quick test_invariant_named;
          Alcotest.test_case "detection skips nonce-less replays" `Quick
            test_detection_skips_replay_without_nonces;
          Alcotest.test_case "full-budget adaptive sampling audits every read" `Quick
            test_full_budget_adaptive_audits_every_read;
        ] );
      ( "differential",
        [
          Alcotest.test_case "naive and dedup auditors agree under attack" `Quick
            test_differential_audit_under_attack;
          Alcotest.test_case "all invariants hold with batching on" `Quick
            test_all_invariants_batched;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "inverted invariant shrinks small" `Quick
            test_inverted_invariant_shrinks_small;
          Alcotest.test_case "pinned replay line reproduces" `Quick
            test_pinned_replay_reproduces;
        ] );
    ]
