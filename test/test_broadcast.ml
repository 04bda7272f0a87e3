(* Tests for the total-order broadcast substrate: agreement on delivery
   order, reliability under loss, sequencer crash and view change,
   and the deterministic elections built on the membership. *)

open Secrep_broadcast
module Sim = Secrep_sim.Sim
module Latency = Secrep_sim.Latency
module Link = Secrep_sim.Link
module Prng = Secrep_crypto.Prng

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- Election ---------------- *)

let test_election_rules () =
  check (Alcotest.option int_t) "sequencer = lowest" (Some 2)
    (Election.sequencer ~alive:[ 5; 2; 9 ]);
  check (Alcotest.option int_t) "auditor = highest" (Some 9)
    (Election.auditor ~alive:[ 5; 2; 9 ]);
  check (Alcotest.option int_t) "empty" None (Election.sequencer ~alive:[]);
  check (Alcotest.option int_t) "next view skips suspect" (Some 5)
    (Election.next_view_sequencer ~alive:[ 5; 2; 9 ] ~suspected:2);
  check (Alcotest.option int_t) "suspect alone" None
    (Election.next_view_sequencer ~alive:[ 2 ] ~suspected:2)

let test_election_cascading_suspicion () =
  (* re-election edge cases: the deterministic rule must keep producing
     a unique next sequencer as candidates fall over one by one *)
  check (Alcotest.option int_t) "first candidate after sequencer crash" (Some 1)
    (Election.next_view_sequencer ~alive:[ 0; 1; 2 ] ~suspected:0);
  check (Alcotest.option int_t) "candidate crashes too: next in line" (Some 2)
    (Election.next_view_sequencer ~alive:[ 1; 2 ] ~suspected:1);
  check (Alcotest.option int_t) "suspect already removed from membership" (Some 3)
    (Election.next_view_sequencer ~alive:[ 3; 4 ] ~suspected:0);
  check (Alcotest.option int_t) "last survivor elects itself" (Some 4)
    (Election.next_view_sequencer ~alive:[ 4 ] ~suspected:3);
  (* role separation: ordering and audit duties stay on different
     hosts whenever two masters survive *)
  List.iter
    (fun alive ->
      match (Election.sequencer ~alive, Election.auditor ~alive) with
      | Some s, Some a when List.length alive >= 2 ->
        check bool_t "sequencer and auditor distinct" true (s <> a)
      | Some s, Some a -> check int_t "singleton holds both roles" s a
      | _ -> Alcotest.fail "roles must exist for non-empty membership")
    [ [ 0; 1; 2 ]; [ 7; 3 ]; [ 5 ]; [ 9; 1; 4; 6 ] ]

(* ---------------- Harness ---------------- *)

type harness = {
  sim : Sim.t;
  group : string Total_order.t;
  delivered : (int, (int * string) list ref) Hashtbl.t;
}

let make_harness ?(members = [ 0; 1; 2 ]) ?(loss = 0.0) ?(seed = 77L) () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let delivered = Hashtbl.create 8 in
  List.iter (fun m -> Hashtbl.replace delivered m (ref [])) members;
  let group =
    Total_order.create sim ~rng ~members
      ~latency:(Latency.Uniform { lo = 0.01; hi = 0.05 })
      ~loss
      ~deliver:(fun ~member ~seq payload ->
        let log = Hashtbl.find delivered member in
        log := (seq, payload) :: !log)
      ()
  in
  { sim; group; delivered }

let deliveries h member = List.rev !(Hashtbl.find h.delivered member)

let test_basic_delivery () =
  let h = make_harness () in
  Total_order.broadcast h.group ~from:1 "hello";
  Sim.run ~until:5.0 h.sim;
  List.iter
    (fun m ->
      check
        (Alcotest.list (Alcotest.pair int_t Alcotest.string))
        (Printf.sprintf "member %d delivered" m)
        [ (0, "hello") ] (deliveries h m))
    [ 0; 1; 2 ]

let test_total_order_agreement () =
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  for i = 0 to 19 do
    let from = i mod 4 in
    ignore
      (Sim.schedule h.sim ~delay:(0.001 *. float_of_int i) (fun () ->
           Total_order.broadcast h.group ~from (Printf.sprintf "m%d-%d" from i)))
  done;
  Sim.run ~until:30.0 h.sim;
  let reference = deliveries h 0 in
  check int_t "all 20 delivered" 20 (List.length reference);
  List.iter
    (fun m ->
      check bool_t
        (Printf.sprintf "member %d agrees with member 0" m)
        true
        (deliveries h m = reference))
    [ 1; 2; 3 ];
  List.iteri (fun i (seq, _) -> check int_t "consecutive slots" i seq) reference

let test_reliability_under_loss () =
  let h = make_harness ~members:[ 0; 1; 2 ] ~loss:0.15 ~seed:31L () in
  for i = 0 to 9 do
    ignore
      (Sim.schedule h.sim ~delay:(0.5 *. float_of_int i) (fun () ->
           Total_order.broadcast h.group ~from:(i mod 3) (Printf.sprintf "p%d" i)))
  done;
  Sim.run ~until:120.0 h.sim;
  let reference = deliveries h 0 in
  check int_t "all survive loss" 10 (List.length reference);
  List.iter
    (fun m -> check bool_t "agreement under loss" true (deliveries h m = reference))
    [ 1; 2 ]

let test_sequencer_crash_view_change () =
  let h = make_harness ~members:[ 0; 1; 2 ] () in
  Total_order.broadcast h.group ~from:1 "before";
  Sim.run ~until:2.0 h.sim;
  check int_t "initial sequencer" 0 (Total_order.sequencer_of h.group 1);
  Total_order.crash h.group 0;
  ignore
    (Sim.schedule h.sim ~delay:0.5 (fun () -> Total_order.broadcast h.group ~from:2 "during"));
  Sim.run ~until:60.0 h.sim;
  check bool_t "view advanced" true (Total_order.view_of h.group 1 > 0);
  check int_t "new sequencer is member 1" 1 (Total_order.sequencer_of h.group 1);
  check int_t "member 2 agrees" 1 (Total_order.sequencer_of h.group 2);
  let d1 = deliveries h 1 and d2 = deliveries h 2 in
  check bool_t "survivors agree" true (d1 = d2);
  check
    (Alcotest.list Alcotest.string)
    "both messages delivered" [ "before"; "during" ] (List.map snd d1);
  check (Alcotest.list int_t) "alive set" [ 1; 2 ] (Total_order.alive h.group)

let test_double_crash () =
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  Total_order.broadcast h.group ~from:3 "one";
  Sim.run ~until:2.0 h.sim;
  Total_order.crash h.group 0;
  Sim.run ~until:20.0 h.sim;
  Total_order.crash h.group 1;
  ignore
    (Sim.schedule h.sim ~delay:1.0 (fun () -> Total_order.broadcast h.group ~from:3 "two"));
  Sim.run ~until:120.0 h.sim;
  let d2 = deliveries h 2 and d3 = deliveries h 3 in
  check bool_t "survivors agree after two crashes" true (d2 = d3);
  check (Alcotest.list Alcotest.string) "both messages" [ "one"; "two" ] (List.map snd d2)

let test_crash_mid_view_change () =
  (* the candidate dies while taking over: member 0 crashes, member 1
     starts the view change (suspect timeout is 2s) and is itself
     crashed right in the takeover window, so the re-election has to
     cascade to member 2 without losing any slot *)
  let h = make_harness ~members:[ 0; 1; 2; 3 ] () in
  Total_order.broadcast h.group ~from:3 "pre";
  Sim.run ~until:1.0 h.sim;
  check int_t "initial sequencer" 0 (Total_order.sequencer_of h.group 3);
  Total_order.crash h.group 0;
  (* survivors suspect 0 at ~3s; kill the first candidate mid-takeover *)
  ignore (Sim.schedule h.sim ~delay:2.2 (fun () -> Total_order.crash h.group 1));
  ignore
    (Sim.schedule h.sim ~delay:3.0 (fun () -> Total_order.broadcast h.group ~from:3 "post"));
  Sim.run ~until:120.0 h.sim;
  check int_t "member 2 ends up sequencer" 2 (Total_order.sequencer_of h.group 2);
  check int_t "member 3 agrees on the sequencer" 2 (Total_order.sequencer_of h.group 3);
  check bool_t "view advanced past the failed takeover" true
    (Total_order.view_of h.group 3 >= 1);
  check int_t "views agree" (Total_order.view_of h.group 2) (Total_order.view_of h.group 3);
  let d2 = deliveries h 2 and d3 = deliveries h 3 in
  check bool_t "survivors agree" true (d2 = d3);
  check
    (Alcotest.list Alcotest.string)
    "no slot lost across the cascaded view change" [ "pre"; "post" ] (List.map snd d3);
  check (Alcotest.list int_t) "alive set" [ 2; 3 ] (Total_order.alive h.group)

let test_simultaneous_candidate_timeout () =
  (* both survivors hit the suspect timeout in the same heartbeat
     window and race to propose the next view; the deterministic rule
     must yield exactly one new sequencer, and sends issued from both
     members inside the race window must all survive *)
  let h = make_harness ~members:[ 0; 1; 2 ] () in
  Total_order.broadcast h.group ~from:0 "before";
  Sim.run ~until:1.0 h.sim;
  Total_order.crash h.group 0;
  (* suspicion fires near t = 3.0 for both survivors; fire broadcasts
     from each of them straddling that instant *)
  List.iter
    (fun (delay, from, tag) ->
      ignore
        (Sim.schedule h.sim ~delay (fun () ->
             Total_order.broadcast h.group ~from (Printf.sprintf "race-%s" tag))))
    [ (1.9, 1, "a"); (1.95, 2, "b"); (2.05, 1, "c"); (2.1, 2, "d") ];
  Sim.run ~until:120.0 h.sim;
  let s1 = Total_order.sequencer_of h.group 1 and s2 = Total_order.sequencer_of h.group 2 in
  check int_t "exactly one winner, agreed by both" s1 s2;
  check int_t "winner is the deterministic candidate" 1 s1;
  check int_t "views agree" (Total_order.view_of h.group 1) (Total_order.view_of h.group 2);
  let d1 = deliveries h 1 and d2 = deliveries h 2 in
  check bool_t "survivors agree on the order" true (d1 = d2);
  check int_t "no race message lost" 5 (List.length d1);
  List.iteri (fun i (seq, _) -> check int_t "slots stay consecutive" i seq) d1

let test_crashed_member_stops () =
  let h = make_harness () in
  Total_order.crash h.group 2;
  Total_order.broadcast h.group ~from:0 "x";
  Sim.run ~until:10.0 h.sim;
  check int_t "dead member delivered nothing" 0 (List.length (deliveries h 2));
  check bool_t "broadcast from dead member rejected" true
    (try
       Total_order.broadcast h.group ~from:2 "y";
       false
     with Invalid_argument _ -> true);
  check bool_t "is_alive" false (Total_order.is_alive h.group 2)

let test_partition_heal () =
  let h = make_harness ~members:[ 0; 1; 2 ] () in
  Total_order.broadcast h.group ~from:0 "first";
  Sim.run ~until:2.0 h.sim;
  Link.set_up (Total_order.link_between h.group 0 2) false;
  Total_order.broadcast h.group ~from:1 "second";
  Sim.run ~until:3.2 h.sim;
  check int_t "member 2 is missing the slot" 1 (List.length (deliveries h 2));
  Link.set_up (Total_order.link_between h.group 0 2) true;
  Sim.run ~until:30.0 h.sim;
  check
    (Alcotest.list Alcotest.string)
    "hole filled after heal" [ "first"; "second" ]
    (List.map snd (deliveries h 2))

let test_delivered_count () =
  let h = make_harness () in
  for _ = 1 to 5 do
    Total_order.broadcast h.group ~from:0 "m"
  done;
  Sim.run ~until:10.0 h.sim;
  List.iter
    (fun m -> check int_t "count" 5 (Total_order.delivered_count h.group m))
    [ 0; 1; 2 ]

let test_create_validation () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:1L in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool_t "empty members" true
    (raises (fun () ->
         Total_order.create sim ~rng ~members:[] ~latency:(Latency.Constant 0.01)
           ~deliver:(fun ~member:_ ~seq:_ _ -> ())
           ()));
  check bool_t "duplicate members" true
    (raises (fun () ->
         Total_order.create sim ~rng ~members:[ 1; 1 ] ~latency:(Latency.Constant 0.01)
           ~deliver:(fun ~member:_ ~seq:_ _ -> ())
           ()))

let prop_agreement =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"total_order: agreement across random schedules"
       QCheck2.Gen.(pair (int_range 0 10000) (list_size (int_range 1 15) (int_bound 2)))
       (fun (seed, senders) ->
         let h = make_harness ~seed:(Int64.of_int (seed + 1)) () in
         List.iteri
           (fun i from ->
             ignore
               (Sim.schedule h.sim ~delay:(0.05 *. float_of_int i) (fun () ->
                    Total_order.broadcast h.group ~from (Printf.sprintf "%d-%d" from i))))
           senders;
         Sim.run ~until:60.0 h.sim;
         let reference = deliveries h 0 in
         List.length reference = List.length senders
         && deliveries h 1 = reference
         && deliveries h 2 = reference))

let prop_chaos =
  (* Loss + a sequencer crash mid-stream + concurrent senders: all
     survivors must agree, and every message broadcast by a member that
     stays alive must be delivered. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"total_order: agreement under loss + crash"
       QCheck2.Gen.(pair (int_range 0 10000) (list_size (int_range 2 10) (int_range 1 3)))
       (fun (seed, senders) ->
         let h =
           make_harness ~members:[ 0; 1; 2; 3 ] ~loss:0.1
             ~seed:(Int64.of_int (seed + 13)) ()
         in
         (* Member 0 (initial sequencer) crashes at t = 1.0; all sends
            come from members 1..3, spread before and after the crash. *)
         List.iteri
           (fun i from ->
             ignore
               (Sim.schedule h.sim ~delay:(0.4 *. float_of_int i) (fun () ->
                    Total_order.broadcast h.group ~from (Printf.sprintf "c%d-%d" from i))))
           senders;
         ignore (Sim.schedule h.sim ~delay:1.0 (fun () -> Total_order.crash h.group 0));
         Sim.run ~until:200.0 h.sim;
         let d1 = deliveries h 1 and d2 = deliveries h 2 and d3 = deliveries h 3 in
         d1 = d2 && d2 = d3 && List.length d1 = List.length senders))

let () =
  Alcotest.run "secrep_broadcast"
    [
      ( "election",
        [
          Alcotest.test_case "rules" `Quick test_election_rules;
          Alcotest.test_case "cascading suspicion" `Quick test_election_cascading_suspicion;
        ] );
      ( "total_order",
        [
          Alcotest.test_case "basic delivery" `Quick test_basic_delivery;
          Alcotest.test_case "total order agreement" `Quick test_total_order_agreement;
          Alcotest.test_case "reliability under loss" `Quick test_reliability_under_loss;
          Alcotest.test_case "sequencer crash + view change" `Quick
            test_sequencer_crash_view_change;
          Alcotest.test_case "double crash" `Quick test_double_crash;
          Alcotest.test_case "crash mid-view-change" `Quick test_crash_mid_view_change;
          Alcotest.test_case "simultaneous candidate timeout" `Quick
            test_simultaneous_candidate_timeout;
          Alcotest.test_case "crashed member stops" `Quick test_crashed_member_stops;
          Alcotest.test_case "partition heal" `Quick test_partition_heal;
          Alcotest.test_case "delivered count" `Quick test_delivered_count;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          prop_agreement;
          prop_chaos;
        ] );
    ]
