(* Differential sharding tests: the deployment layer must be invisible
   to each shard.  A K-shard deployment driving disjoint per-content
   workloads has to produce event streams, verdicts and audit counters
   bit-identical to K standalone single-content systems built from the
   same derived seeds — any divergence means the deployment perturbed a
   shard's schedule or PRNG.  Plus unit coverage for rendezvous
   placement, shard routing, host-level chaos re-homing and the sharded
   fuzz-harness path. *)

module Placement = Secrep_shard.Placement
module Deployment = Secrep_shard.Deployment
module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Auditor = Secrep_core.Auditor
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Scenario = Secrep_check.Scenario
module Harness = Secrep_check.Harness
module Invariant = Secrep_check.Invariant

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- placement ---------------- *)

let cid i = Printf.sprintf "content-%d" i

let test_placement_deterministic () =
  let hosts = List.init 10 (fun h -> h) in
  let a = Placement.assign ~content_id:(cid 1) ~hosts ~replicas:3 in
  let b = Placement.assign ~content_id:(cid 1) ~hosts ~replicas:3 in
  check (Alcotest.list int_t) "same inputs, same layout" a b;
  check int_t "replica count" 3 (List.length a);
  check int_t "distinct hosts" 3 (List.length (List.sort_uniq compare a));
  let ranked = Placement.rank ~content_id:(cid 1) ~hosts in
  check (Alcotest.list int_t) "rank is a permutation of the pool"
    hosts (List.sort compare ranked);
  check (Alcotest.list int_t) "assign = rank prefix"
    (List.filteri (fun i _ -> i < 3) ranked) a;
  (* different contents land differently somewhere in a small pool *)
  let other = Placement.assign ~content_id:(cid 2) ~hosts ~replicas:3 in
  check bool_t "not all contents co-located" true
    (List.exists
       (fun i -> Placement.assign ~content_id:(cid i) ~hosts ~replicas:3 <> a)
       [ 2; 3; 4; 5 ]
    || other <> a)

let test_placement_hrw_stability () =
  let hosts = List.init 12 (fun h -> h) in
  let before = Placement.assign ~content_id:(cid 7) ~hosts ~replicas:3 in
  (* removing a host that holds no replica moves nothing *)
  let spare = List.find (fun h -> not (List.mem h before)) hosts in
  let without_spare =
    Placement.assign ~content_id:(cid 7)
      ~hosts:(List.filter (fun h -> h <> spare) hosts)
      ~replicas:3
  in
  check (Alcotest.list int_t) "removing a bystander moves nothing" before without_spare;
  (* removing a replica host replaces exactly that replica *)
  let victim = List.hd before in
  let after =
    Placement.assign ~content_id:(cid 7)
      ~hosts:(List.filter (fun h -> h <> victim) hosts)
      ~replicas:3
  in
  let survivors = List.filter (fun h -> h <> victim) before in
  check bool_t "survivors keep their replicas" true
    (List.for_all (fun h -> List.mem h after) survivors);
  check int_t "exactly one replacement" 1
    (List.length (List.filter (fun h -> not (List.mem h before)) after));
  (* the replacement operator picks the same fresh host *)
  match
    Placement.replacement ~content_id:(cid 7)
      ~hosts:(List.filter (fun h -> h <> victim) hosts)
      ~current:survivors ~dead:victim
  with
  | None -> Alcotest.fail "pool not exhausted"
  | Some fresh ->
    check bool_t "replacement is the new member" true
      (List.mem fresh after && not (List.mem fresh before))

let test_placement_spread_and_errors () =
  let hosts = List.init 8 (fun h -> h) in
  let content_ids = List.init 64 cid in
  let spread = Placement.spread ~content_ids ~hosts ~replicas:3 in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 spread in
  check int_t "replica mass conserved" (64 * 3) total;
  check bool_t "every host carries some load" true
    (List.for_all (fun h ->
         match List.assoc_opt h spread with Some n -> n > 0 | None -> false)
       hosts);
  check bool_t "pool too small rejected" true
    (try
       ignore (Placement.assign ~content_id:(cid 0) ~hosts:[ 0; 1 ] ~replicas:3);
       false
     with Invalid_argument _ -> true);
  check bool_t "zero replicas rejected" true
    (try
       ignore (Placement.assign ~content_id:(cid 0) ~hosts ~replicas:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- differential: deployment vs standalone ----------------

   Both sides are driven by the exact same code below: [drive] only
   sees schedule/read/write closures, so the deployment run and the
   standalone reference runs receive identical timed operations. *)

let base_config =
  Config.validate_exn
    {
      Config.default with
      Config.max_latency = 1.0;
      keepalive_period = 0.3;
      double_check_probability = 0.05;
    }

let digest = Trace.digest

let capture sys =
  let rev = ref [] in
  Trace.on_emit (System.trace sys) (fun r -> rev := r :: !rev);
  fun () -> List.rev !rev

(* a small mixed workload over one shard's own catalogue *)
let drive ~schedule ~read ~write ~keys =
  for i = 0 to 5 do
    let at = 2.0 +. (3.0 *. float_of_int i) in
    schedule at (fun () ->
        write
          (Oplog.Set_field
             { key = keys.(i mod 2); field = "stock"; value = Value.Int (100 + i) }))
  done;
  for i = 0 to 19 do
    let at = 1.0 +. (0.8 *. float_of_int i) in
    schedule at (fun () -> read ~client:(i mod 2) (Query.point_read keys.(i mod 4)))
  done

let drive_deployment d ~shard =
  let keys = Deployment.keys d shard in
  drive
    ~schedule:(fun at f -> Deployment.schedule d ~shard ~time:at f)
    ~read:(fun ~client q -> Deployment.read d ~shard ~client q ~on_done:(fun _ -> ()))
    ~write:(fun op -> Deployment.write d ~shard ~client:0 op ~on_done:(fun _ -> ()))
    ~keys

let drive_standalone sys ~keys =
  drive
    ~schedule:(fun at f -> ignore (Sim.schedule_at (System.sim sys) ~time:at f))
    ~read:(fun ~client q -> System.read sys ~client q ~on_done:(fun _ -> ()))
    ~write:(fun op -> System.write sys ~client:0 op ~on_done:(fun _ -> ()))
    ~keys

(* the standalone reference for shard [k]: same derived seeds, same
   config, no deployment anywhere near it *)
let standalone ~seed ~items ~slaves_per_master k =
  let sys =
    System.create ~n_masters:1 ~slaves_per_master ~n_clients:2 ~config:base_config
      ~net:System.lan_net
      ~seed:(Deployment.shard_seed ~seed k)
      ()
  in
  let content =
    Catalog.product_catalog
      (Prng.create ~seed:(Deployment.shard_content_seed ~seed k))
      ~n:items
  in
  System.load_content sys content;
  (sys, Array.of_list (List.map fst content))

let differential ?(k = 4) ?(seed = 77L) ?(items = 6) ?(replication = 3) ?liar ~horizon () =
  let d =
    Deployment.create ~n_shards:k ~n_masters:1 ~replication_factor:replication
      ~n_clients:2 ~config:base_config ~net:System.lan_net ~seed
      ~items_per_shard:items ~auto_rebalance:false ()
  in
  let dep_streams = List.init k (fun i -> capture (Deployment.system d i)) in
  let refs = List.init k (standalone ~seed ~items ~slaves_per_master:replication) in
  let ref_streams = List.map (fun (sys, _) -> capture sys) refs in
  (match liar with
  | None -> ()
  | Some (shard, slave) ->
    let behavior =
      Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 3.0 }
    in
    System.set_slave_behavior (Deployment.system d shard) ~slave behavior;
    System.set_slave_behavior (fst (List.nth refs shard)) ~slave behavior);
  for i = 0 to k - 1 do
    drive_deployment d ~shard:i;
    let sys, keys = List.nth refs i in
    drive_standalone sys ~keys
  done;
  Deployment.run_until d horizon;
  List.iter (fun (sys, _) -> System.run_until sys horizon) refs;
  List.iteri
    (fun i (dep_stream, (ref_stream, (ref_sys, _))) ->
      let label fmt = Printf.sprintf fmt i in
      check string_t
        (label "shard %d stream bit-identical to standalone")
        (digest (ref_stream ())) (digest (dep_stream ()));
      let dep_sys = Deployment.system d i in
      check (Alcotest.list int_t)
        (label "shard %d verdicts identical")
        (Corrective.excluded (System.corrective ref_sys))
        (Corrective.excluded (System.corrective dep_sys));
      check int_t
        (label "shard %d audit count identical")
        (Auditor.audited (System.auditor ref_sys))
        (Auditor.audited (System.auditor dep_sys)))
    (List.combine dep_streams (List.combine ref_streams refs));
  (d, refs)

let test_differential_k1 () =
  (* the degenerate deployment: one shard must be exactly the classic
     single-content system *)
  ignore (differential ~k:1 ~horizon:40.0 ())

let test_differential_k4_honest () =
  let d, refs = differential ~k:4 ~horizon:40.0 () in
  List.iter
    (fun (sys, _) ->
      check (Alcotest.list int_t) "honest run convicts nobody" []
        (Corrective.excluded (System.corrective sys)))
    refs;
  check int_t "four distinct contents" 4
    (List.length
       (List.sort_uniq compare
          (List.init 4 (fun i -> System.content_id (Deployment.system d i)))))

let test_differential_k2_liar () =
  (* one Byzantine replica in shard 0; shard 1 stays honest.  With a
     single replica per shard every shard-0 read hits the liar. *)
  let _d, refs = differential ~k:2 ~replication:1 ~liar:(0, 0) ~horizon:80.0 () in
  check bool_t "reference run catches the liar" true
    (Corrective.excluded (System.corrective (fst (List.nth refs 0))) <> []);
  check (Alcotest.list int_t) "honest shard convicts nobody" []
    (Corrective.excluded (System.corrective (fst (List.nth refs 1))))

let test_deployment_deterministic () =
  let mk () =
    let d =
      Deployment.create ~n_shards:3 ~n_masters:1 ~replication_factor:2 ~n_clients:2
        ~config:base_config ~net:System.lan_net ~seed:5L ~items_per_shard:4 ()
    in
    let lines = ref [] in
    Deployment.on_event d (fun ~shard r ->
        lines := Deployment.tagged_line ~shard r :: !lines);
    for i = 0 to 2 do
      drive_deployment d ~shard:i
    done;
    Deployment.run_until d 30.0;
    List.rev !lines
  in
  let a = mk () and b = mk () in
  check int_t "same stream length" (List.length a) (List.length b);
  List.iter2 (fun la lb -> check string_t "merged tagged streams identical" la lb) a b

let test_tagged_lines () =
  let d =
    Deployment.create ~n_shards:2 ~config:base_config ~net:System.lan_net ~seed:3L
      ~items_per_shard:4 ()
  in
  let seen = ref [] in
  Deployment.on_event d (fun ~shard r -> seen := (shard, Deployment.tagged_line ~shard r) :: !seen);
  drive_deployment d ~shard:1;
  Deployment.run_until d 10.0;
  check bool_t "events observed" true (!seen <> []);
  List.iter
    (fun (shard, line) ->
      check bool_t "tag reads back" true (Deployment.shard_of_line line = Some shard);
      match Export.record_of_line line with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("tagged line must stay parseable: " ^ msg))
    !seen;
  (* placement events carry their shard natively *)
  let placement = Trace.to_list (Deployment.trace d) in
  check bool_t "placement events recorded" true
    (List.exists
       (fun r -> match r.Trace.event with Event.Shard_assigned _ -> true | _ -> false)
       placement)

(* ---------------- host chaos and re-homing ---------------- *)

let rebalances d =
  List.filter_map
    (fun r ->
      match r.Trace.event with
      | Event.Shard_rebalanced { shard; from_host; to_host; reason; _ } ->
        Some (shard, from_host, to_host, reason)
      | _ -> None)
    (Trace.to_list (Deployment.trace d))

let test_crash_rehoming () =
  let d =
    Deployment.create ~n_shards:2 ~n_masters:1 ~replication_factor:2 ~n_clients:2
      ~config:base_config ~net:System.lan_net ~seed:21L ~items_per_shard:3 ()
  in
  (* crash a host that actually carries shard 0's first replica and
     leave it down well past the provisioning delay *)
  let victim = (Deployment.hosts_of_shard d 0).(0) in
  Deployment.crash_host d ~at:5.0 victim;
  Deployment.run_until d 30.0;
  check bool_t "host marked dead" false (Deployment.host_is_alive d victim);
  let moves = rebalances d in
  check bool_t "crash re-homing recorded" true
    (List.exists (fun (_, from, _, reason) -> from = victim && reason = "crash") moves);
  for i = 0 to 1 do
    check bool_t "no replica left on the dead host" false
      (Array.exists (fun h -> h = victim) (Deployment.hosts_of_shard d i))
  done;
  List.iter
    (fun (_, _, to_host, _) ->
      check bool_t "replacement hosts are alive" true (Deployment.host_is_alive d to_host))
    moves;
  (* the pool heals: recovery marks the host live again *)
  Deployment.recover_host d ~at:31.0 victim;
  Deployment.run_until d 32.0;
  check bool_t "host alive after recovery" true (Deployment.host_is_alive d victim)

let test_exclusion_rehoming () =
  (* a convicted liar's slot is re-homed (§3.5) and the replacement is
     readmitted honest after the provisioning delay *)
  let d =
    Deployment.create ~n_shards:2 ~n_masters:1 ~replication_factor:1 ~n_clients:2
      ~config:base_config ~net:System.lan_net ~seed:13L ~items_per_shard:4 ()
  in
  System.set_slave_behavior (Deployment.system d 0) ~slave:0
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 3.0 });
  let before = (Deployment.hosts_of_shard d 0).(0) in
  drive_deployment d ~shard:0;
  drive_deployment d ~shard:1;
  Deployment.run_until d 80.0;
  let moves = rebalances d in
  check bool_t "exclusion re-homing recorded" true
    (List.exists
       (fun (shard, from, _, reason) -> shard = 0 && from = before && reason = "exclusion")
       moves);
  check bool_t "slot moved off the liar's host" true
    ((Deployment.hosts_of_shard d 0).(0) <> before);
  check bool_t "readmitted replica no longer excluded" false
    (Corrective.is_currently_excluded (System.corrective (Deployment.system d 0)) ~slave_id:0);
  check (Alcotest.list int_t) "honest shard untouched" []
    (Corrective.excluded (System.corrective (Deployment.system d 1)))

(* ---------------- the sharded fuzz-harness path ---------------- *)

let sharded_scenario ?(faults = []) ~sys_seed () =
  {
    Scenario.sys_seed;
    n_shards = 3;
    n_masters = 1;
    slaves_per_master = 2;
    n_clients = 2;
    n_items = 4;
    max_latency = 1.0;
    keepalive_period = 0.3;
    double_check_p = 0.05;
    audit = true;
    pledge_batch = 1;
      read_nonces = false;
      audit_adaptive = false;
    net = Scenario.Lan;
    faults;
    chaos = [];
    ops =
      List.init 18 (fun i ->
          Scenario.Read { client = i mod 2; key = i mod 4; at = 1.0 +. (0.9 *. float_of_int i) })
      @ [
          Scenario.Write { client = 0; key = 0; at = 2.0 };
          Scenario.Write { client = 1; key = 1; at = 6.0 };
          Scenario.Write { client = 0; key = 2; at = 10.0 };
        ];
  }

let test_harness_honest_invariants () =
  let results = Harness.run (sharded_scenario ~sys_seed:4321 ()) in
  check int_t "one result per shard" 3 (List.length results);
  List.iteri
    (fun i result ->
      check bool_t (Printf.sprintf "shard %d has its own stream" i) true
        (result.Harness.events <> []);
      match Invariant.check_all Invariant.all result with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "shard %d: %s" i msg))
    results

let test_harness_liar_invariants () =
  (* fault on slave 1 routes to shard 1; every shard must still satisfy
     the full invariant set, detection included *)
  let scenario =
    sharded_scenario ~sys_seed:1234
      ~faults:
        [
          {
            Scenario.slave = 1;
            mode = Fault.Corrupt_result;
            probability = 1.0;
            from_time = 2.0;
          };
        ]
      ()
  in
  let results = Harness.run scenario in
  check int_t "one result per shard" 3 (List.length results);
  List.iteri
    (fun i result ->
      check int_t
        (Printf.sprintf "shard %d carries only its faults" i)
        (if i = 1 then 1 else 0)
        (List.length result.Harness.scenario.Scenario.faults);
      match Invariant.check_all Invariant.all result with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "shard %d: %s" i msg))
    results

(* ---------------- the parallel scheduler ----------------

   The determinism oracle: a deployment advanced by the domain-parallel
   scheduler must produce byte-identical per-shard streams, tap
   delivery and rebalance decisions to the sequential lockstep run —
   the only permitted difference is the [Domain_started]/[Shard_merged]
   window markers, which exist only in parallel mode. *)

let window_marker line =
  match Export.record_of_line line with
  | Ok { Trace.event = Event.Domain_started _ | Event.Shard_merged _; _ } -> true
  | _ -> false

let parallel_run ~domains ?(liar = false) ?(chaos = false) () =
  let d =
    Deployment.create ~n_shards:4 ~n_masters:1 ~replication_factor:2 ~n_clients:2
      ~config:base_config ~net:System.lan_net ~seed:31L ~items_per_shard:4 ~domains ()
  in
  if liar then
    System.set_slave_behavior (Deployment.system d 0) ~slave:0
      (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 3.0 });
  let shard_streams = List.init 4 (fun i -> capture (Deployment.system d i)) in
  let lines = ref [] in
  Deployment.on_event d (fun ~shard r ->
      lines := Deployment.tagged_line ~shard r :: !lines);
  for i = 0 to 3 do
    drive_deployment d ~shard:i
  done;
  if chaos then begin
    let victim = (Deployment.hosts_of_shard d 0).(0) in
    Deployment.crash_host d ~at:5.0 victim;
    Deployment.recover_host d ~at:20.0 victim
  end;
  Deployment.run_until d 40.0;
  (d, List.map (fun s -> digest (s ())) shard_streams, List.rev !lines)

let test_parallel_streams_identical () =
  let _, seq_digests, seq_lines = parallel_run ~domains:0 () in
  let d_par, par_digests, par_lines = parallel_run ~domains:3 () in
  check (Alcotest.list string_t) "per-shard digests bit-identical across schedulers"
    seq_digests par_digests;
  (* tap delivery identical modulo the parallel-only window markers *)
  check bool_t "sequential run emits no window markers" false
    (List.exists window_marker seq_lines);
  let par_filtered = List.filter (fun l -> not (window_marker l)) par_lines in
  check int_t "same tap stream length" (List.length seq_lines)
    (List.length par_filtered);
  List.iter2
    (fun a b -> check string_t "tap streams identical" a b)
    seq_lines par_filtered;
  (* the parallel trace records the window bookkeeping *)
  let trace = Trace.to_list (Deployment.trace d_par) in
  let started =
    List.filter
      (fun r -> match r.Trace.event with Event.Domain_started _ -> true | _ -> false)
      trace
  in
  check int_t "one start marker per worker domain" 3 (List.length started);
  check int_t "workers cover every shard" 4
    (List.fold_left
       (fun acc r ->
         match r.Trace.event with
         | Event.Domain_started { shards; _ } -> acc + shards
         | _ -> acc)
       0 started);
  let merged_counts =
    List.filter_map
      (fun r ->
        match r.Trace.event with
        | Event.Shard_merged { shard; events } -> Some (shard, events)
        | _ -> None)
      trace
  in
  check (Alcotest.list int_t) "one merge marker per shard" [ 0; 1; 2; 3 ]
    (List.sort compare (List.map fst merged_counts));
  check bool_t "every shard merged a non-empty stream" true
    (List.for_all (fun (_, n) -> n > 0) merged_counts)

let test_parallel_chaos_liar_identical () =
  (* Adversarial + chaos: exclusion re-homing, crash re-homing and
     recovery must make identical decisions on every scheduler. *)
  let d0, seq_digests, _ = parallel_run ~domains:0 ~liar:true ~chaos:true () in
  let results =
    List.map (fun w -> parallel_run ~domains:w ~liar:true ~chaos:true ()) [ 2; 4 ]
  in
  List.iter
    (fun (d, digests, _) ->
      check (Alcotest.list string_t) "digests identical under chaos" seq_digests digests;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.pair int_t int_t) (Alcotest.pair int_t string_t)))
        "identical rebalance decisions"
        (List.map (fun (a, b, c, s) -> ((a, b), (c, s))) (rebalances d0))
        (List.map (fun (a, b, c, s) -> ((a, b), (c, s))) (rebalances d)))
    results

let test_harness_domains_identical () =
  (* The harness path end to end, faults and chaos included: every
     [domains] setting yields the same per-shard digests. *)
  let scenario =
    {
      (sharded_scenario ~sys_seed:2718
         ~faults:
           [
             {
               Scenario.slave = 1;
               mode = Fault.Corrupt_result;
               probability = 1.0;
               from_time = 2.0;
             };
           ]
         ())
      with
      Scenario.chaos = [ Scenario.Slave_churn { slave = 0; from_time = 4.0; outage = 6.0 } ];
    }
  in
  let digests domains =
    List.map Harness.events_digest (Harness.run ~domains scenario)
  in
  let seq = digests 0 in
  check int_t "one digest per shard" 3 (List.length seq);
  check (Alcotest.list string_t) "domains=2 identical" seq (digests 2);
  check (Alcotest.list string_t) "domains=8 (more than shards) identical" seq (digests 8)

(* ---------------- HRW stability property ---------------- *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* [after] must be [before] with at most the victim's slots replaced:
   survivors keep their replicas in the same relative order, and the
   number of new hosts equals the number of slots the victim held. *)
let placement_stability_prop (n, r_raw, victim_raw, cseed) =
  let r = 1 + (r_raw mod (n - 1)) in
  let victim = victim_raw mod n in
  let hosts = List.init n (fun h -> h) in
  let content_id = Printf.sprintf "content-%d" cseed in
  let before = Placement.assign ~content_id ~hosts ~replicas:r in
  let after =
    Placement.assign ~content_id
      ~hosts:(List.filter (fun h -> h <> victim) hosts)
      ~replicas:r
  in
  let survivors = List.filter (fun h -> h <> victim) before in
  let rec subsequence xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xt, y :: yt -> if x = y then subsequence xt yt else subsequence xs yt
  in
  let moved = List.filter (fun h -> not (List.mem h before)) after in
  List.length after = r
  && subsequence survivors after
  && List.length moved = (if List.mem victim before then 1 else 0)
  && (List.mem victim before || after = before)

let test_placement_stability_prop =
  qtest "HRW: removing one host moves at most that host's slots"
    QCheck2.Gen.(
      quad (int_range 3 16) (int_range 0 100) (int_range 0 100) (int_range 0 10_000))
    placement_stability_prop

let () =
  Alcotest.run "secrep_shard"
    [
      ( "placement",
        [
          Alcotest.test_case "deterministic rendezvous" `Quick test_placement_deterministic;
          Alcotest.test_case "HRW stability" `Quick test_placement_hrw_stability;
          Alcotest.test_case "spread and errors" `Quick test_placement_spread_and_errors;
          test_placement_stability_prop;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "differential K=1 degenerate" `Quick test_differential_k1;
          Alcotest.test_case "differential K=4 honest" `Quick test_differential_k4_honest;
          Alcotest.test_case "differential K=2 with liar" `Quick test_differential_k2_liar;
          Alcotest.test_case "deterministic merged stream" `Quick
            test_deployment_deterministic;
          Alcotest.test_case "tagged JSONL" `Quick test_tagged_lines;
          Alcotest.test_case "crash re-homing" `Quick test_crash_rehoming;
          Alcotest.test_case "exclusion re-homing" `Quick test_exclusion_rehoming;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "streams identical across schedulers" `Quick
            test_parallel_streams_identical;
          Alcotest.test_case "identical under chaos and liar" `Quick
            test_parallel_chaos_liar_identical;
          Alcotest.test_case "harness digests identical per domains" `Quick
            test_harness_domains_identical;
        ] );
      ( "fuzz_path",
        [
          Alcotest.test_case "per-shard invariants (honest)" `Quick
            test_harness_honest_invariants;
          Alcotest.test_case "per-shard invariants (liar)" `Quick
            test_harness_liar_invariants;
        ] );
    ]
