(* Tests for the discrete-event simulation substrate: event queue
   ordering, clock semantics, latency models, links, periodic
   processes, work queues and the statistics helpers. *)

open Secrep_sim
module Prng = Secrep_crypto.Prng

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let float_t = Alcotest.(float 1e-9)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- Event_queue ---------------- *)

let test_eq_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~time:3.0 "c");
  ignore (Event_queue.push q ~time:1.0 "a");
  ignore (Event_queue.push q ~time:2.0 "b");
  check (Alcotest.option (Alcotest.pair float_t Alcotest.string)) "first" (Some (1.0, "a"))
    (Event_queue.pop q);
  check (Alcotest.option (Alcotest.pair float_t Alcotest.string)) "second" (Some (2.0, "b"))
    (Event_queue.pop q);
  check (Alcotest.option (Alcotest.pair float_t Alcotest.string)) "third" (Some (3.0, "c"))
    (Event_queue.pop q);
  check bool_t "drained" true (Event_queue.pop q = None)

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.push q ~time:1.0 i)
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (_, v) -> check int_t "insertion order preserved" i v
    | None -> Alcotest.fail "queue exhausted early"
  done

let test_eq_cancel () =
  let q = Event_queue.create () in
  let _a = Event_queue.push q ~time:1.0 "a" in
  let b = Event_queue.push q ~time:2.0 "b" in
  let _c = Event_queue.push q ~time:3.0 "c" in
  Event_queue.cancel q b;
  check int_t "size after cancel" 2 (Event_queue.size q);
  check bool_t "a first" true (Event_queue.pop q = Some (1.0, "a"));
  check bool_t "c skips b" true (Event_queue.pop q = Some (3.0, "c"));
  Event_queue.cancel q b;
  check int_t "empty" 0 (Event_queue.size q)

let test_eq_peek () =
  let q = Event_queue.create () in
  check bool_t "peek empty" true (Event_queue.peek_time q = None);
  let a = Event_queue.push q ~time:5.0 "a" in
  ignore (Event_queue.push q ~time:7.0 "b");
  check (Alcotest.option float_t) "peek" (Some 5.0) (Event_queue.peek_time q);
  Event_queue.cancel q a;
  check (Alcotest.option float_t) "peek skips cancelled" (Some 7.0) (Event_queue.peek_time q)

let test_eq_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "NaN rejected" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> ignore (Event_queue.push q ~time:Float.nan "x"))

let prop_eq_sorts =
  qtest "event_queue: pops in non-decreasing time order"
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> ignore (Event_queue.push q ~time ())) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

let prop_eq_model =
  (* Random interleaving of push/pop checked against a naive
     list-based model (ties break by insertion id, matching the
     queue's FIFO-tie contract). *)
  qtest ~count:100 "event_queue: agrees with a reference model"
    QCheck2.Gen.(list_size (int_range 0 120) (pair (int_bound 2) (float_bound_inclusive 100.0)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun (op, time) ->
          match op with
          | 0 | 1 ->
            let id = !next_id in
            incr next_id;
            ignore (Event_queue.push q ~time id);
            model := (time, id) :: !model
          | _ -> begin
            let sorted =
              List.sort
                (fun (t1, i1) (t2, i2) ->
                  if t1 <> t2 then Float.compare t1 t2 else Int.compare i1 i2)
                !model
            in
            match (Event_queue.pop q, sorted) with
            | None, [] -> ()
            | Some (t, v), (mt, mi) :: rest ->
              if t <> mt || v <> mi then ok := false;
              model := rest
            | Some _, [] | None, _ :: _ -> ok := false
          end)
        ops;
      !ok)

(* ---------------- Sim ---------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log));
  Sim.run sim;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check float_t "clock at last event" 3.0 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr fired))
  done;
  Sim.run ~until:5.5 sim;
  check int_t "five fired" 5 !fired;
  check float_t "clock exactly at until" 5.5 (Sim.now sim);
  Sim.run sim;
  check int_t "rest fired" 10 !fired

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         hits := Sim.now sim :: !hits;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> hits := Sim.now sim :: !hits))));
  Sim.run sim;
  check (Alcotest.list float_t) "nested times" [ 1.0; 1.5 ] (List.rev !hits)

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> ignore (Sim.schedule sim ~delay:(-1.0) (fun () -> ())))

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  check bool_t "cancelled event does not fire" false !fired

let test_sim_max_events () =
  let sim = Sim.create () in
  let rec rearm () = ignore (Sim.schedule sim ~delay:1.0 rearm) in
  rearm ();
  Sim.run ~max_events:25 sim;
  check int_t "bounded" 25 (Sim.executed_events sim)

(* ---------------- Latency ---------------- *)

let test_latency_validate () =
  let bad l = try Latency.validate l; false with Invalid_argument _ -> true in
  check bool_t "negative constant" true (bad (Latency.Constant (-1.0)));
  check bool_t "lo > hi" true (bad (Latency.Uniform { lo = 2.0; hi = 1.0 }));
  check bool_t "zero mean" true (bad (Latency.Exponential { mean = 0.0; floor = 0.0 }));
  check bool_t "pareto shape <= 1" true
    (bad (Latency.Pareto { scale = 1.0; shape = 1.0; cap = 2.0 }));
  check bool_t "empty empirical" true (bad (Latency.Empirical [||]));
  Latency.validate (Latency.Constant 0.1);
  Latency.validate (Latency.Uniform { lo = 0.0; hi = 1.0 })

let test_latency_samples_in_range () =
  let g = Prng.create ~seed:21L in
  let models =
    [
      Latency.Constant 0.05;
      Latency.Uniform { lo = 0.01; hi = 0.02 };
      Latency.Exponential { mean = 0.01; floor = 0.005 };
      Latency.Pareto { scale = 0.01; shape = 2.0; cap = 0.5 };
      Latency.Empirical [| 0.001; 0.002; 0.003 |];
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 500 do
        let s = Latency.sample m g in
        check bool_t "non-negative" true (s >= 0.0);
        match m with
        | Latency.Uniform { lo; hi } -> check bool_t "uniform range" true (s >= lo && s <= hi)
        | Latency.Exponential { floor; _ } -> check bool_t "above floor" true (s >= floor)
        | Latency.Pareto { scale; cap; _ } ->
          check bool_t "pareto range" true (s >= scale && s <= cap)
        | Latency.Constant c -> check bool_t "constant" true (s = c)
        | Latency.Empirical arr ->
          check bool_t "from samples" true (Array.exists (fun x -> x = s) arr)
      done)
    models

let test_latency_mean_estimates () =
  let g = Prng.create ~seed:22L in
  let m = Latency.Exponential { mean = 0.01; floor = 0.005 } in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Latency.sample m g
  done;
  let sample_mean = !sum /. float_of_int n in
  check bool_t "sample mean near analytic" true
    (Float.abs (sample_mean -. Latency.mean m) < 0.001)

(* ---------------- Link ---------------- *)

let test_link_delivers () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:23L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 0.01) () in
  let got = ref 0 in
  for _ = 1 to 5 do
    Link.send link (fun () -> incr got)
  done;
  Sim.run sim;
  check int_t "all delivered" 5 !got;
  check int_t "counted" 5 (Link.delivered link);
  check float_t "took one hop" 0.01 (Sim.now sim)

let test_link_down_drops () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:24L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 0.01) () in
  Link.set_up link false;
  let got = ref 0 in
  Link.send link (fun () -> incr got);
  Sim.run sim;
  check int_t "nothing delivered" 0 !got;
  check int_t "dropped" 1 (Link.dropped link)

let test_link_inflight_dropped_on_down () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:25L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 1.0) () in
  let got = ref 0 in
  Link.send link (fun () -> incr got);
  ignore (Sim.schedule sim ~delay:0.5 (fun () -> Link.set_up link false));
  ignore (Sim.schedule sim ~delay:0.6 (fun () -> Link.set_up link true));
  Sim.run sim;
  check int_t "in-flight message lost" 0 !got

(* Regression pin for the fail-stop contract: cutting the link drops
   every in-flight delivery, the drops are visible in [dropped], and the
   link works again after healing — no delivery leaks across a down
   window. *)
let test_link_failstop_semantics () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:28L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 1.0) () in
  let got = ref 0 in
  for _ = 1 to 4 do
    Link.send link (fun () -> incr got)
  done;
  ignore (Sim.schedule sim ~delay:0.5 (fun () -> Link.set_up link false));
  ignore
    (Sim.schedule sim ~delay:0.6 (fun () ->
         (* sent while down: dropped immediately, not queued *)
         Link.send link (fun () -> incr got)));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> Link.set_up link true));
  ignore
    (Sim.schedule sim ~delay:2.5 (fun () -> Link.send link (fun () -> incr got)));
  Sim.run sim;
  check int_t "only the post-heal message arrives" 1 !got;
  check int_t "in-flight + while-down messages all counted dropped" 5 (Link.dropped link);
  check int_t "delivered counts the survivor" 1 (Link.delivered link)

(* The chaos mutators compose with the rest of the link model: loss
   applies to the new rate immediately, a latency swap only affects
   messages sent after it, and bandwidth charges stack on top. *)
let test_link_mutators_compose () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:29L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 0.01) () in
  check bool_t "loss starts at zero" true (Link.loss link = 0.0);
  Link.set_loss link 0.5;
  let got = ref 0 in
  for _ = 1 to 1000 do
    Link.send link (fun () -> incr got)
  done;
  Sim.run sim;
  check bool_t "mutated loss rate applies" true (!got > 400 && !got < 600);
  (match Link.set_loss link 1.5 with
  | () -> Alcotest.fail "loss 1.5 should be rejected"
  | exception Invalid_argument _ -> ());
  Link.set_loss link 0.0;
  Link.set_latency link (Latency.Constant 0.1);
  Link.set_bandwidth link ~bytes_per_sec:1000.0;
  let arrival = ref 0.0 in
  Link.send_sized link ~bytes_len:100 (fun () -> arrival := Sim.now sim);
  let before = Sim.now sim in
  Sim.run sim;
  check float_t "new latency + transfer charge" (before +. 0.1 +. 0.1) !arrival

let test_link_loss () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:26L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 0.001) ~loss:0.5 () in
  let got = ref 0 in
  for _ = 1 to 1000 do
    Link.send link (fun () -> incr got)
  done;
  Sim.run sim;
  check bool_t "roughly half lost" true (!got > 400 && !got < 600)

let test_link_bandwidth () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:27L in
  let link = Link.create sim ~rng:g ~latency:(Latency.Constant 0.01) () in
  Link.set_bandwidth link ~bytes_per_sec:1000.0;
  let arrival = ref 0.0 in
  Link.send_sized link ~bytes_len:100 (fun () -> arrival := Sim.now sim);
  Sim.run sim;
  check float_t "latency + transfer" 0.11 !arrival

(* ---------------- Process ---------------- *)

let test_process_periodic () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  let p = Process.periodic sim ~period:1.0 (fun () -> incr ticks) in
  Sim.run ~until:10.5 sim;
  check int_t "ticks" 11 !ticks;
  check int_t "fired counter" 11 (Process.fired p);
  Process.stop p;
  Sim.run ~until:20.0 sim;
  check int_t "no ticks after stop" 11 !ticks;
  check bool_t "not running" false (Process.is_running p)

let test_process_stop_from_inside () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  let p_ref = ref None in
  let p =
    Process.periodic sim ~period:1.0 (fun () ->
        incr ticks;
        if !ticks = 3 then Process.stop (Option.get !p_ref))
  in
  p_ref := Some p;
  Sim.run ~until:100.0 sim;
  check int_t "stopped itself at 3" 3 !ticks

let test_process_jitter_requires_rng () =
  let sim = Sim.create () in
  Alcotest.check_raises "jitter without rng"
    (Invalid_argument "Process.periodic: jitter requires an rng") (fun () ->
      ignore (Process.periodic sim ~period:1.0 ~jitter:0.1 (fun () -> ())))

let test_process_jitter_bounds () =
  let sim = Sim.create () in
  let g = Prng.create ~seed:31L in
  let times = ref [] in
  ignore
    (Process.periodic sim ~period:1.0 ~jitter:0.2 ~rng:g (fun () ->
         times := Sim.now sim :: !times));
  Sim.run ~until:50.0 sim;
  let times = List.rev !times in
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b -. a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun gap ->
      check bool_t "gap within jitter" true (gap >= 0.8 -. 1e-9 && gap <= 1.2 +. 1e-9))
    (gaps times)

(* ---------------- Work_queue ---------------- *)

let test_work_queue_sequential () =
  let sim = Sim.create () in
  let wq = Work_queue.create sim () in
  let finishes = ref [] in
  Work_queue.submit wq ~cost:1.0 (fun () -> finishes := Sim.now sim :: !finishes);
  Work_queue.submit wq ~cost:2.0 (fun () -> finishes := Sim.now sim :: !finishes);
  Work_queue.submit wq ~cost:0.5 (fun () -> finishes := Sim.now sim :: !finishes);
  Sim.run sim;
  check (Alcotest.list float_t) "sequential finish times" [ 1.0; 3.0; 3.5 ]
    (List.rev !finishes);
  check int_t "completed" 3 (Work_queue.completed wq);
  check float_t "busy seconds" 3.5 (Work_queue.busy_seconds wq)

let test_work_queue_idle_gap () =
  let sim = Sim.create () in
  let wq = Work_queue.create sim () in
  let t1 = ref 0.0 in
  Work_queue.submit wq ~cost:1.0 (fun () -> ());
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         Work_queue.submit wq ~cost:1.0 (fun () -> t1 := Sim.now sim)));
  Sim.run sim;
  check float_t "starts when submitted" 6.0 !t1

let test_work_queue_negative_cost () =
  let sim = Sim.create () in
  let wq = Work_queue.create sim () in
  Alcotest.check_raises "negative" (Invalid_argument "Work_queue.submit: bad cost")
    (fun () -> Work_queue.submit wq ~cost:(-1.0) (fun () -> ()))

(* ---------------- Histogram ---------------- *)

let test_histogram_percentiles () =
  let h = Histogram.create ~name:"t" () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  check float_t "p50" 50.0 (Histogram.percentile h 50.0);
  check float_t "p99" 99.0 (Histogram.percentile h 99.0);
  check float_t "p100" 100.0 (Histogram.percentile h 100.0);
  check float_t "min" 1.0 (Histogram.min_value h);
  check float_t "max" 100.0 (Histogram.max_value h);
  check float_t "mean" 50.5 (Histogram.mean h);
  check int_t "count" 100 (Histogram.count h)

let test_histogram_empty_errors () =
  let h = Histogram.create () in
  check bool_t "is_empty" true (Histogram.is_empty h);
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool_t "mean raises" true (raises (fun () -> Histogram.mean h));
  check bool_t "percentile raises" true (raises (fun () -> Histogram.percentile h 50.0))

let test_histogram_merge_stddev () =
  let a = Histogram.create ~name:"a" () and b = Histogram.create ~name:"b" () in
  List.iter (Histogram.add a) [ 1.0; 2.0 ];
  List.iter (Histogram.add b) [ 3.0; 4.0 ];
  let m = Histogram.merge a b in
  check int_t "merged count" 4 (Histogram.count m);
  check float_t "merged mean" 2.5 (Histogram.mean m);
  check bool_t "stddev" true (Float.abs (Histogram.stddev m -. sqrt 1.25) < 1e-9)

let prop_histogram_percentile_bounds =
  qtest "histogram: percentiles lie within [min,max]"
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.0))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          v >= Histogram.min_value h && v <= Histogram.max_value h)
        [ 0.0; 25.0; 50.0; 75.0; 99.0; 100.0 ])

(* ---------------- Stats ---------------- *)

let test_stats_counters () =
  let s = Stats.create () in
  check int_t "unknown is 0" 0 (Stats.get s "nope");
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 5;
  check int_t "a" 2 (Stats.get s "a");
  check int_t "b" 5 (Stats.get s "b");
  check (Alcotest.list (Alcotest.pair Alcotest.string int_t)) "sorted list"
    [ ("a", 2); ("b", 5) ] (Stats.counters s);
  Stats.set_gauge s "g" 1.5;
  check (Alcotest.option float_t) "gauge" (Some 1.5) (Stats.gauge s "g");
  let h = Stats.histogram s "h" in
  Histogram.add h 1.0;
  check int_t "histogram shared" 1 (Histogram.count (Stats.histogram s "h"))

(* ---------------- Timeseries ---------------- *)

let test_timeseries_basic () =
  let ts = Timeseries.create ~name:"t" () in
  Timeseries.record ts ~time:0.0 1.0;
  Timeseries.record ts ~time:1.0 3.0;
  Timeseries.record ts ~time:2.0 2.0;
  check int_t "length" 3 (Timeseries.length ts);
  check (Alcotest.option (Alcotest.pair float_t float_t)) "last" (Some (2.0, 2.0))
    (Timeseries.last ts);
  check (Alcotest.option float_t) "max" (Some 3.0) (Timeseries.max_value ts);
  Alcotest.check_raises "time goes backwards"
    (Invalid_argument "Timeseries.record: time went backwards") (fun () ->
      Timeseries.record ts ~time:1.0 0.0)

let test_timeseries_downsample () =
  let ts = Timeseries.create () in
  for i = 0 to 99 do
    Timeseries.record ts ~time:(float_of_int i) (float_of_int (i mod 10))
  done;
  let buckets = Timeseries.downsample ts ~buckets:10 in
  check int_t "10 buckets" 10 (Array.length buckets);
  Array.iter (fun (_, v) -> check bool_t "bucket mean" true (v >= 0.0 && v <= 9.0)) buckets

(* ---------------- Trace ---------------- *)

let test_trace_ring () =
  let tr = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.log tr ~time:(float_of_int i) ~source:"s" (Printf.sprintf "e%d" i)
  done;
  check int_t "capped size" 3 (Trace.size tr);
  check int_t "total" 5 (Trace.total_logged tr);
  let events = List.map Trace.message (Trace.to_list tr) in
  check (Alcotest.list Alcotest.string) "keeps newest" [ "e3"; "e4"; "e5" ] events;
  check bool_t "find" true (Trace.find tr ~f:(fun r -> Trace.message r = "e4") <> None);
  check int_t "count" 3 (Trace.count_matching tr ~f:(fun r -> r.Trace.source = "s"))

let test_trace_wraparound_accounting () =
  (* After heavy overflow, [size] stays pinned at the capacity while
     [total_logged] keeps counting, and the retained window is exactly
     the newest [capacity] records in emission order. *)
  let capacity = 7 in
  let tr = Trace.create ~capacity () in
  let n = 100 in
  for i = 1 to n do
    Trace.emit tr ~time:(float_of_int i) ~source:"s" (Event.Read_issued { client = i; request = i; mode = "single" })
  done;
  check int_t "size = capacity" capacity (Trace.size tr);
  check int_t "total_logged = all emits" n (Trace.total_logged tr);
  let clients =
    List.map
      (fun r ->
        match r.Trace.event with Event.Read_issued { client; _ } -> client | _ -> -1)
      (Trace.to_list tr)
  in
  check (Alcotest.list int_t) "newest window, oldest first"
    (List.init capacity (fun i -> n - capacity + 1 + i))
    clients

let test_trace_typed_queries () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 ~source:"client-0" (Event.Read_issued { client = 0; request = 1; mode = "single" });
  Trace.emit tr ~time:2.0 ~source:"slave-1"
    (Event.Pledge_signed { slave = 1; request = 1; version = 3; lied = true });
  Trace.emit tr ~time:3.0 ~source:"client-0" (Event.Read_issued { client = 0; request = 2; mode = "quorum-2" });
  check int_t "count_kind" 2 (Trace.count_kind tr ~kind:"read_issued");
  check (Alcotest.list Alcotest.string) "distinct kinds sorted"
    [ "pledge_signed"; "read_issued" ] (Trace.kinds tr)

(* ---------------- Event ---------------- *)

let sample_events =
  [
    Event.Log "free-form";
    Event.Read_issued { client = 3; request = 3_000_001; mode = "quorum-2" };
    Event.Read_answered
      {
        client = 3;
        request = 3_000_001;
        slave = 7;
        outcome = "accepted";
        version = 12;
        latency = 0.034;
      };
    Event.Pledge_signed { slave = 7; request = 3_000_001; version = 12; lied = false };
    Event.Pledge_batch_signed { slave = 7; version = 12; batch = 8 };
    Event.Pledge_verified
      {
        client = 3;
        request = 3_000_001;
        slave = 7;
        version = 12;
        ok = false;
        reason = "stale keepalive";
      };
    Event.Double_check { client = 3; request = 3_000_001; slave = 7; outcome = Event.Mismatch };
    Event.Write_committed { master = 1; version = 13 };
    Event.Keepalive_sent { master = 1; version = 13 };
    Event.State_update_applied { slave = 7; from_version = 12; to_version = 13 };
    Event.Audit_advance { version = 13 };
    Event.Audit_conviction { slave = 7; version = 12 };
    Event.Slave_excluded { slave = 7; immediate = true };
    Event.Order_delivered { member = 0; seq = 42 };
    Event.View_installed { member = 0; view = 2; sequencer = 1 };
    Event.Partition { target = "slave-7"; up = false };
    Event.Node_crashed { node = "slave-7" };
    Event.Node_recovered { node = "slave-7"; version = 13 };
    Event.Net_degraded { loss = 0.2; latency_factor = 4.0 };
    Event.Breaker_opened { client = 3; slave = 7 };
    Event.Breaker_closed { client = 3; slave = 7 };
    Event.Audit_overload { backlog = 100000 };
    Event.Alert_raised { rule = "staleness"; value = 6.2; threshold = 5.0 };
    Event.Alert_cleared { rule = "staleness"; duration = 12.5 };
    Event.Shard_assigned { shard = 2; host = 9; slot = 1 };
    Event.Shard_rebalanced { shard = 2; slot = 1; from_host = 9; to_host = 4; reason = "crash" };
    Event.Attack_launched
      { slave = 7; mode = "replay-pledge"; client = 3; request = 3_000_001 };
    Event.Attack_suppressed { slave = 7; mode = "adaptive:1"; reason = "audit-pressure" };
    Event.Slave_quarantined { slave = 7; score = 3.25; until = 42.5 };
    Event.Domain_started { domain = 1; shards = 2 };
    Event.Shard_merged { shard = 2; events = 137 };
  ]

let test_event_fields_roundtrip () =
  List.iter
    (fun e ->
      match Event.of_fields ~kind:(Event.kind e) (Event.fields e) with
      | Ok e' -> check bool_t (Event.kind e ^ " round-trips") true (e = e')
      | Error msg -> Alcotest.fail (Event.kind e ^ ": " ^ msg))
    sample_events;
  check int_t "taxonomy covers every variant" (List.length sample_events)
    (List.length Event.all_kinds)

(* ---------------- Span ---------------- *)

let test_span_nesting_and_durations () =
  let stats = Stats.create () in
  let sp = Span.create ~stats () in
  (* outer [0,10] encloses inner [2,5]; a sibling source overlaps both.
     Each is recorded once its duration is known, innermost first. *)
  Span.record sp ~source:"a" ~start:2.0 ~duration:3.0 "inner";
  Span.record sp ~source:"b" ~start:3.0 ~duration:1.0 "other";
  Span.record sp ~source:"a" ~start:0.0 ~duration:10.0 "outer";
  check int_t "all recorded" 3 (Span.total_finished sp);
  check (Alcotest.list Alcotest.string) "kept in record order" [ "inner"; "other"; "outer" ]
    (List.map (fun r -> r.Span.name) (Span.finished sp));
  let by_name name =
    match List.find_opt (fun r -> r.Span.name = name) (Span.finished sp) with
    | Some r -> r
    | None -> Alcotest.fail ("missing span " ^ name)
  in
  check float_t "outer duration" 10.0 (by_name "outer").Span.duration;
  check float_t "inner duration" 3.0 (by_name "inner").Span.duration;
  check float_t "inner start" 2.0 (by_name "inner").Span.start;
  check Alcotest.string "sibling source" "b" (by_name "other").Span.source;
  (* Recording feeds the span.<name> histogram of the attached stats. *)
  let h = Stats.histogram stats (Span.histogram_name "inner") in
  check int_t "histogram fed" 1 (Histogram.count h);
  check float_t "histogram value" 3.0 (Histogram.mean h)

let test_span_record_and_errors () =
  let sp = Span.create ~capacity:3 () in
  Span.record sp ~source:"s" ~start:1.0 ~duration:0.5 "phase";
  check int_t "recorded" 1 (Span.total_finished sp);
  Alcotest.check_raises "negative duration" (Invalid_argument "Span.record: bad duration")
    (fun () -> Span.record sp ~source:"s" ~start:2.0 ~duration:(-1.0) "x");
  Alcotest.check_raises "NaN duration" (Invalid_argument "Span.record: bad duration")
    (fun () -> Span.record sp ~source:"s" ~start:2.0 ~duration:Float.nan "x");
  check int_t "rejected spans not counted" 1 (Span.total_finished sp);
  (* Past capacity the ring keeps the newest spans, oldest first, and
     the total still counts every record. *)
  for i = 1 to 4 do
    Span.record sp ~source:"s" ~start:(float_of_int i) ~duration:0.0 (Printf.sprintf "w%d" i)
  done;
  check int_t "ring pinned at capacity" 3 (Span.size sp);
  check int_t "every record counted" 5 (Span.total_finished sp);
  check (Alcotest.list Alcotest.string) "newest retained" [ "w2"; "w3"; "w4" ]
    (List.map (fun r -> r.Span.name) (Span.finished sp))

(* ---------------- Export ---------------- *)

let test_export_jsonl_roundtrip () =
  let tr = Trace.create () in
  List.iteri
    (fun i e -> Trace.emit tr ~time:(0.5 +. float_of_int i) ~source:"src" e)
    sample_events;
  let lines = String.split_on_char '\n' (String.trim (Export.jsonl_of_trace tr)) in
  check int_t "one line per record" (List.length sample_events) (List.length lines);
  List.iteri
    (fun i line ->
      match Export.record_of_line line with
      | Error msg -> Alcotest.fail (Printf.sprintf "line %d: %s" i msg)
      | Ok r ->
        check float_t "time round-trips" (0.5 +. float_of_int i) r.Trace.time;
        check Alcotest.string "source round-trips" "src" r.Trace.source;
        check bool_t "event round-trips" true (r.Trace.event = List.nth sample_events i))
    lines

let test_export_chrome_parses () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 ~source:"client-0" (Event.Read_issued { client = 0; request = 1; mode = "single" });
  let sp = Span.create () in
  Span.record sp ~source:"slave-0" ~start:1.0 ~duration:0.25 "query_eval";
  let json = Export.chrome_of ~spans:sp ~trace:tr () in
  match Export.Json.parse json with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> begin
    match Export.Json.member "traceEvents" doc with
    | Some (Export.Json.Arr events) ->
      (* one span (X), one instant (i), two thread-name metadata (M) *)
      check int_t "event count" 4 (List.length events);
      let phase e =
        match Export.Json.member "ph" e with Some (Export.Json.Str s) -> s | _ -> "?"
      in
      let count p = List.length (List.filter (fun e -> phase e = p) events) in
      check int_t "complete spans" 1 (count "X");
      check int_t "instants" 1 (count "i");
      check int_t "thread metadata" 2 (count "M");
      let x = List.find (fun e -> phase e = "X") events in
      (match Export.Json.member "dur" x with
      | Some (Export.Json.Num d) -> check float_t "duration in microseconds" 250000.0 d
      | Some (Export.Json.Int d) -> check int_t "duration in microseconds" 250000 d
      | _ -> Alcotest.fail "span missing dur")
    | _ -> Alcotest.fail "missing traceEvents array"
  end

let test_export_prometheus () =
  let stats = Stats.create () in
  Stats.add stats "client.reads_issued" 41;
  Stats.set_gauge stats "sim.pending_events" 17.0;
  let h = Stats.histogram stats "span.verify" in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i /. 1000.0)
  done;
  let text = Export.prometheus_of_stats stats in
  let has needle =
    (* substring search, stdlib only *)
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check bool_t "counter line" true (has "secrep_client_reads_issued 41");
  check bool_t "counter type" true (has "# TYPE secrep_client_reads_issued counter");
  check bool_t "gauge line" true (has "secrep_sim_pending_events 17.000000");
  check bool_t "p50 label" true (has "secrep_span_verify{quantile=\"0.50\"} 0.050000");
  check bool_t "p99 label" true (has "secrep_span_verify{quantile=\"0.99\"} 0.099000");
  check bool_t "count line" true (has "secrep_span_verify_count 100")

(* ---------------- Rolling ---------------- *)

let test_rolling_empty () =
  let r = Rolling.create ~window:10.0 () in
  check int_t "count" 0 (Rolling.count r);
  check float_t "sum" 0.0 (Rolling.sum r);
  check (Alcotest.option float_t) "mean" None (Rolling.mean r);
  check (Alcotest.option float_t) "percentile" None (Rolling.percentile r 99.0);
  check float_t "window" 10.0 (Rolling.window r)

let test_rolling_single_sample () =
  let r = Rolling.create ~window:10.0 () in
  Rolling.record r ~time:1.0 4.0;
  check int_t "count" 1 (Rolling.count r);
  check (Alcotest.option float_t) "mean" (Some 4.0) (Rolling.mean r);
  check (Alcotest.option float_t) "p0 = p100 = the sample" (Some 4.0)
    (Rolling.percentile r 0.0);
  check (Alcotest.option float_t) "p100" (Some 4.0) (Rolling.percentile r 100.0)

let test_rolling_eviction () =
  let r = Rolling.create ~window:5.0 () in
  Rolling.record r ~time:0.0 1.0;
  Rolling.record r ~time:2.0 2.0;
  Rolling.record r ~time:4.0 3.0;
  check int_t "all inside window" 3 (Rolling.count r);
  (* advancing to 6 evicts the t=0 sample ((6 - 5) > 0) only *)
  Rolling.advance r ~now:6.0;
  check int_t "one evicted" 2 (Rolling.count r);
  check float_t "sum follows" 5.0 (Rolling.sum r);
  check (Alcotest.option float_t) "mean follows" (Some 2.5) (Rolling.mean r);
  Rolling.advance r ~now:100.0;
  check int_t "all evicted" 0 (Rolling.count r);
  check (Alcotest.option float_t) "empty again" None (Rolling.mean r)

let test_rolling_record_evicts_too () =
  let r = Rolling.create ~window:5.0 () in
  Rolling.record r ~time:0.0 1.0;
  (* recording far in the future evicts the stale sample on the way in *)
  Rolling.record r ~time:20.0 7.0;
  check int_t "stale sample gone" 1 (Rolling.count r);
  check (Alcotest.option float_t) "only the fresh one" (Some 7.0) (Rolling.mean r)

let test_rolling_out_of_order () =
  let r = Rolling.create ~window:5.0 () in
  Rolling.record r ~time:3.0 1.0;
  Alcotest.check_raises "time goes backwards"
    (Invalid_argument "Rolling.record: time went backwards") (fun () ->
      Rolling.record r ~time:2.0 1.0);
  (* equal timestamps are fine (several events in the same sim instant) *)
  Rolling.record r ~time:3.0 2.0;
  check int_t "tie accepted" 2 (Rolling.count r)

let test_rolling_percentile () =
  let r = Rolling.create ~window:1000.0 () in
  for i = 1 to 100 do
    Rolling.record r ~time:(float_of_int i) (float_of_int i)
  done;
  check (Alcotest.option float_t) "p50 nearest-rank" (Some 50.0) (Rolling.percentile r 50.0);
  check (Alcotest.option float_t) "p99" (Some 99.0) (Rolling.percentile r 99.0);
  check (Alcotest.option float_t) "p100" (Some 100.0) (Rolling.percentile r 100.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Rolling.percentile: p outside [0,100]") (fun () ->
      ignore (Rolling.percentile r 101.0))

(* The sort-on-demand window: the reference for Rolling's incremental
   order statistic. *)
module Rolling_ref = struct
  type t = { window : float; mutable samples : (float * float) list (* oldest first *) }

  let create ~window = { window; samples = [] }
  let advance t ~now = t.samples <- List.filter (fun (ts, _) -> ts >= now -. t.window) t.samples
  let record t ~time v =
    t.samples <- t.samples @ [ (time, v) ];
    advance t ~now:time

  let values t = Array.of_list (List.map snd t.samples)

  let percentile t p =
    let a = values t in
    let n = Array.length a in
    if n = 0 then None
    else begin
      Array.sort compare a;
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      Some a.(max 0 (min (n - 1) (rank - 1)))
    end
end

let rolling_ps = List.init 101 float_of_int @ [ 0.1; 33.3; 50.5; 99.9 ]

let test_rolling_matches_reference =
  (* Steps: record (3 in 4) or advance, by a time step that is often 0
     (ties) and sometimes past the window (evict-all), with values drawn
     from a few integers (duplicates) or a continuous range.  Percentiles
     are checked after every step but one kind of record, so the window
     starts keeping its order at a random point. *)
  let step =
    QCheck2.Gen.(
      triple (int_bound 3)
        (oneofl [ 0.0; 0.0; 0.25; 1.0; 2.5; 6.0 ])
        (oneof [ map float_of_int (int_bound 4); float_bound_inclusive 100.0 ]))
  in
  qtest ~count:100 "rolling: agrees with a sort-on-demand window"
    QCheck2.Gen.(list_size (int_range 0 150) step)
    (fun steps ->
      let r = Rolling.create ~window:5.0 () and m = Rolling_ref.create ~window:5.0 in
      let now = ref 0.0 in
      List.for_all
        (fun (kind, dt, v) ->
          now := !now +. dt;
          if kind < 3 then begin
            Rolling.record r ~time:!now v;
            Rolling_ref.record m ~time:!now v
          end
          else begin
            Rolling.advance r ~now:!now;
            Rolling_ref.advance m ~now:!now
          end;
          Rolling.values r = Rolling_ref.values m
          && Rolling.count r = Array.length (Rolling_ref.values m)
          && (kind = 1
             || List.for_all
                  (fun p -> Rolling.percentile r p = Rolling_ref.percentile m p)
                  rolling_ps))
        steps)

(* ---------------- Timeseries (aggregation edges) ---------------- *)

let test_timeseries_empty_edges () =
  let ts = Timeseries.create () in
  check int_t "empty length" 0 (Timeseries.length ts);
  check (Alcotest.option (Alcotest.pair float_t float_t)) "empty last" None
    (Timeseries.last ts);
  check (Alcotest.option float_t) "empty max" None (Timeseries.max_value ts);
  check int_t "empty downsample" 0 (Array.length (Timeseries.downsample ts ~buckets:5))

let test_timeseries_single_point () =
  let ts = Timeseries.create () in
  Timeseries.record ts ~time:2.0 7.0;
  check (Alcotest.option float_t) "max" (Some 7.0) (Timeseries.max_value ts);
  let b = Timeseries.downsample ts ~buckets:4 in
  check int_t "one occupied bucket" 1 (Array.length b);
  check float_t "bucket mean is the point" 7.0 (snd b.(0));
  (* equal timestamps accepted, strictly earlier rejected *)
  Timeseries.record ts ~time:2.0 8.0;
  check int_t "tie accepted" 2 (Timeseries.length ts)

(* ---------------- Export: alert events ---------------- *)

let test_export_alert_golden () =
  (* Stable field ordering + float rendering: these exact lines are the
     wire format downstream tooling greps, pinned as goldens. *)
  let raised = Event.Alert_raised { rule = "staleness"; value = 6.2; threshold = 5.0 } in
  check Alcotest.string "alert_raised line"
    {|{"ts":7.250000000,"source":"slo","kind":"alert_raised","rule":"staleness","value":6.200000000,"threshold":5.0}|}
    (Export.event_line ~time:7.25 ~source:"slo" raised);
  let cleared = Event.Alert_cleared { rule = "read-latency"; duration = 12.5 } in
  check Alcotest.string "alert_cleared line"
    {|{"ts":30.0,"source":"slo","kind":"alert_cleared","rule":"read-latency","duration":12.500000000}|}
    (Export.event_line ~time:30.0 ~source:"slo" cleared);
  (* label escaping: a hostile rule name survives the round-trip *)
  let hostile = Event.Alert_raised { rule = {|ru"le\n|}; value = 1.0; threshold = 0.0 } in
  match Export.record_of_line (Export.event_line ~time:1.0 ~source:"slo" hostile) with
  | Ok r -> check bool_t "hostile rule round-trips" true (r.Trace.event = hostile)
  | Error msg -> Alcotest.fail msg

let test_export_shard_golden () =
  (* Placement wire format: pinned like the alert goldens so shard
     dashboards can grep these lines across versions. *)
  let assigned = Event.Shard_assigned { shard = 2; host = 9; slot = 1 } in
  check Alcotest.string "shard_assigned line"
    {|{"ts":0.0,"source":"deployment","kind":"shard_assigned","shard":2,"host":9,"slot":1}|}
    (Export.event_line ~time:0.0 ~source:"deployment" assigned);
  let rebalanced =
    Event.Shard_rebalanced { shard = 2; slot = 1; from_host = 9; to_host = 4; reason = "crash" }
  in
  check Alcotest.string "shard_rebalanced line"
    {|{"ts":42.500000000,"source":"deployment","kind":"shard_rebalanced","shard":2,"slot":1,"from_host":9,"to_host":4,"reason":"crash"}|}
    (Export.event_line ~time:42.5 ~source:"deployment" rebalanced);
  (* round-trip through the line parser, including a hostile reason *)
  List.iter
    (fun e ->
      match Export.record_of_line (Export.event_line ~time:3.0 ~source:"deployment" e) with
      | Ok r -> check bool_t (Event.kind e ^ " line round-trips") true (r.Trace.event = e)
      | Error msg -> Alcotest.fail msg)
    [
      assigned;
      rebalanced;
      Event.Shard_rebalanced
        { shard = 0; slot = 0; from_host = 1; to_host = 2; reason = {|ex"clu\sion|} };
    ];
  (* the ?extra tagging path: foreign events gain a shard key, events
     that already carry their shard don't get a duplicate *)
  let tagged =
    Export.event_line ~time:1.0 ~source:"slave-0"
      ~extra:[ ("shard", Export.Json.Int 3) ]
      (Event.Keepalive_sent { master = 0; version = 7 })
  in
  check Alcotest.string "extra shard tag appended"
    {|{"ts":1.0,"source":"slave-0","kind":"keepalive_sent","master":0,"version":7,"shard":3}|}
    tagged;
  match Export.record_of_line tagged with
  | Ok r ->
    check bool_t "tagged line still parses as its event" true
      (r.Trace.event = Event.Keepalive_sent { master = 0; version = 7 })
  | Error msg -> Alcotest.fail msg

let test_export_parallel_golden () =
  (* Parallel-scheduler wire format: the CI parallel-smoke gate greps
     these exact lines, so pin them like the shard goldens. *)
  let started = Event.Domain_started { domain = 1; shards = 2 } in
  check Alcotest.string "domain_started line"
    {|{"ts":0.0,"source":"deployment","kind":"domain_started","domain":1,"shards":2}|}
    (Export.event_line ~time:0.0 ~source:"deployment" started);
  let merged = Event.Shard_merged { shard = 3; events = 137 } in
  check Alcotest.string "shard_merged line"
    {|{"ts":64.0,"source":"deployment","kind":"shard_merged","shard":3,"events":137}|}
    (Export.event_line ~time:64.0 ~source:"deployment" merged);
  List.iter
    (fun e ->
      match Export.record_of_line (Export.event_line ~time:3.0 ~source:"deployment" e) with
      | Ok r -> check bool_t (Event.kind e ^ " line round-trips") true (r.Trace.event = e)
      | Error msg -> Alcotest.fail msg)
    [ started; merged ];
  (* the shard-tagging path used by the deployment's JSONL dump:
     [Domain_started] carries no shard and gains the tag (here the
     coordinator's -1 sentinel); [Shard_merged] already names its shard
     and must not be double-keyed.  A hostile source string must stay
     escaped alongside the tag. *)
  let tagged_start =
    Export.event_line ~time:2.0 ~source:"deployment"
      ~extra:[ ("shard", Export.Json.Int (-1)) ]
      started
  in
  check Alcotest.string "domain_started gains shard tag"
    {|{"ts":2.0,"source":"deployment","kind":"domain_started","domain":1,"shards":2,"shard":-1}|}
    tagged_start;
  check bool_t "shard_merged already keyed" true
    (List.mem_assoc "shard" (Event.fields merged));
  let hostile_src =
    Export.event_line ~time:2.0 ~source:{|dep"loy\ment
|}
      ~extra:[ ("shard", Export.Json.Int 0) ]
      started
  in
  (match Export.record_of_line hostile_src with
  | Ok r ->
    check Alcotest.string "hostile source round-trips" {|dep"loy\ment
|}
      r.Trace.source;
    check bool_t "hostile-source event intact" true (r.Trace.event = started)
  | Error msg -> Alcotest.fail msg);
  match Export.Json.parse hostile_src with
  | Ok json ->
    check bool_t "tag survives hostile source" true
      (Export.Json.member "shard" json = Some (Export.Json.Int 0))
  | Error msg -> Alcotest.fail msg

let test_export_adversary_golden () =
  (* Adversary wire format: the CI smoke job and campaign tooling grep
     these exact lines, so pin them like the alert/shard goldens. *)
  let launched = Event.Attack_launched { slave = 0; mode = "replay"; client = 4; request = 4000007 } in
  check Alcotest.string "attack_launched line"
    {|{"ts":2.500000000,"source":"slave-0","kind":"attack_launched","slave":0,"mode":"replay","client":4,"request":4000007}|}
    (Export.event_line ~time:2.5 ~source:"slave-0" launched);
  let suppressed =
    Event.Attack_suppressed { slave = 0; mode = "equivocate"; reason = "no-clique-peer" }
  in
  check Alcotest.string "attack_suppressed line"
    {|{"ts":3.0,"source":"slave-0","kind":"attack_suppressed","slave":0,"mode":"equivocate","reason":"no-clique-peer"}|}
    (Export.event_line ~time:3.0 ~source:"slave-0" suppressed);
  let quarantined = Event.Slave_quarantined { slave = 0; score = 3.25; until = 45.0 } in
  check Alcotest.string "slave_quarantined line"
    {|{"ts":9.125000000,"source":"auditor-1","kind":"slave_quarantined","slave":0,"score":3.250000000,"until":45.0}|}
    (Export.event_line ~time:9.125 ~source:"auditor-1" quarantined);
  (* round-trip through the line parser, including a hostile reason *)
  List.iter
    (fun e ->
      match Export.record_of_line (Export.event_line ~time:3.0 ~source:"slave-0" e) with
      | Ok r -> check bool_t (Event.kind e ^ " line round-trips") true (r.Trace.event = e)
      | Error msg -> Alcotest.fail msg)
    [
      launched;
      suppressed;
      quarantined;
      Event.Attack_suppressed { slave = 2; mode = "adaptive"; reason = {|thr"esh\old|} };
    ]

let test_export_alert_all_formats () =
  (* Alert events survive every --trace-format: jsonl round-trips and
     chrome renders them as instants on the "slo" thread. *)
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 ~source:"slo"
    (Event.Alert_raised { rule = "availability"; value = 4.0; threshold = 2.0 });
  Trace.emit tr ~time:9.0 ~source:"slo"
    (Event.Alert_cleared { rule = "availability"; duration = 8.0 });
  let lines = String.split_on_char '\n' (String.trim (Export.jsonl_of_trace tr)) in
  List.iter
    (fun line ->
      match Export.record_of_line line with
      | Ok r -> check Alcotest.string "source" "slo" r.Trace.source
      | Error msg -> Alcotest.fail msg)
    lines;
  match Export.Json.parse (Export.chrome_of ~trace:tr ()) with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> begin
    match Export.Json.member "traceEvents" doc with
    | Some (Export.Json.Arr events) ->
      let instants =
        List.filter
          (fun e ->
            match Export.Json.member "ph" e with
            | Some (Export.Json.Str "i") -> true
            | _ -> false)
          events
      in
      check int_t "two instants" 2 (List.length instants);
      List.iter
        (fun e ->
          match Export.Json.member "name" e with
          | Some (Export.Json.Str name) ->
            check bool_t "instant named after the alert kind" true
              (name = "alert_raised" || name = "alert_cleared")
          | _ -> Alcotest.fail "instant missing name")
        instants
    | _ -> Alcotest.fail "missing traceEvents array"
  end

let test_export_json_parser () =
  let ok s = match Export.Json.parse s with Ok v -> Some v | Error _ -> None in
  check bool_t "object" true
    (ok {|{"a":1,"b":[true,null,"x\n"],"c":-2.5e2}|} <> None);
  check bool_t "trailing garbage rejected" true (ok "{} junk" = None);
  check bool_t "unterminated string rejected" true (ok {|{"a":"b}|} = None);
  check bool_t "int stays int" true (ok "42" = Some (Export.Json.Int 42));
  check bool_t "escape round-trip" true
    (match ok (Export.Json.to_string (Export.Json.Str "a\"\\\n\tb")) with
    | Some (Export.Json.Str s) -> s = "a\"\\\n\tb"
    | _ -> false)

let () =
  Alcotest.run "secrep_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_eq_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eq_cancel;
          Alcotest.test_case "peek" `Quick test_eq_peek;
          Alcotest.test_case "NaN rejected" `Quick test_eq_nan;
          prop_eq_sorts;
          prop_eq_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested scheduling" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
        ] );
      ( "latency",
        [
          Alcotest.test_case "validate" `Quick test_latency_validate;
          Alcotest.test_case "samples in range" `Quick test_latency_samples_in_range;
          Alcotest.test_case "mean estimate" `Quick test_latency_mean_estimates;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivers" `Quick test_link_delivers;
          Alcotest.test_case "down drops" `Quick test_link_down_drops;
          Alcotest.test_case "in-flight dropped on down" `Quick
            test_link_inflight_dropped_on_down;
          Alcotest.test_case "loss rate" `Quick test_link_loss;
          Alcotest.test_case "bandwidth charge" `Quick test_link_bandwidth;
          Alcotest.test_case "fail-stop semantics pinned" `Quick test_link_failstop_semantics;
          Alcotest.test_case "chaos mutators compose" `Quick test_link_mutators_compose;
        ] );
      ( "process",
        [
          Alcotest.test_case "periodic" `Quick test_process_periodic;
          Alcotest.test_case "stop from inside" `Quick test_process_stop_from_inside;
          Alcotest.test_case "jitter requires rng" `Quick test_process_jitter_requires_rng;
          Alcotest.test_case "jitter bounds" `Quick test_process_jitter_bounds;
        ] );
      ( "work_queue",
        [
          Alcotest.test_case "sequential" `Quick test_work_queue_sequential;
          Alcotest.test_case "idle gap" `Quick test_work_queue_idle_gap;
          Alcotest.test_case "negative cost" `Quick test_work_queue_negative_cost;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty errors" `Quick test_histogram_empty_errors;
          Alcotest.test_case "merge and stddev" `Quick test_histogram_merge_stddev;
          prop_histogram_percentile_bounds;
        ] );
      ("stats", [ Alcotest.test_case "counters/gauges/histograms" `Quick test_stats_counters ]);
      ( "rolling",
        [
          Alcotest.test_case "empty window" `Quick test_rolling_empty;
          Alcotest.test_case "single sample" `Quick test_rolling_single_sample;
          Alcotest.test_case "eviction" `Quick test_rolling_eviction;
          Alcotest.test_case "record evicts stale" `Quick test_rolling_record_evicts_too;
          Alcotest.test_case "out-of-order guard" `Quick test_rolling_out_of_order;
          Alcotest.test_case "percentile nearest-rank" `Quick test_rolling_percentile;
          test_rolling_matches_reference;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "basics" `Quick test_timeseries_basic;
          Alcotest.test_case "downsample" `Quick test_timeseries_downsample;
          Alcotest.test_case "empty edges" `Quick test_timeseries_empty_edges;
          Alcotest.test_case "single point" `Quick test_timeseries_single_point;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring semantics" `Quick test_trace_ring;
          Alcotest.test_case "wraparound accounting" `Quick test_trace_wraparound_accounting;
          Alcotest.test_case "typed queries" `Quick test_trace_typed_queries;
        ] );
      ("event", [ Alcotest.test_case "fields round-trip" `Quick test_event_fields_roundtrip ]);
      ( "span",
        [
          Alcotest.test_case "nesting and durations" `Quick test_span_nesting_and_durations;
          Alcotest.test_case "record and errors" `Quick test_span_record_and_errors;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_export_jsonl_roundtrip;
          Alcotest.test_case "chrome trace parses" `Quick test_export_chrome_parses;
          Alcotest.test_case "prometheus text" `Quick test_export_prometheus;
          Alcotest.test_case "json parser" `Quick test_export_json_parser;
          Alcotest.test_case "alert golden lines" `Quick test_export_alert_golden;
          Alcotest.test_case "shard golden lines" `Quick test_export_shard_golden;
          Alcotest.test_case "parallel golden lines" `Quick test_export_parallel_golden;
          Alcotest.test_case "adversary golden lines" `Quick test_export_adversary_golden;
          Alcotest.test_case "alerts in every format" `Quick test_export_alert_all_formats;
        ] );
    ]
