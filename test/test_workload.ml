(* Tests for the workload library: Zipf sampling, diurnal shaping,
   synthetic catalogues, the query mix and the end-to-end driver. *)

open Secrep_workload
module Sim = Secrep_sim.Sim
module Prng = Secrep_crypto.Prng
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Document = Secrep_store.Document
module Value = Secrep_store.Value
module Canonical = Secrep_store.Canonical
module System = Secrep_core.System
module Config = Secrep_core.Config
module Client = Secrep_core.Client
module Fault = Secrep_core.Fault

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ---------------- Zipf ---------------- *)

let test_zipf_probabilities () =
  let z = Zipf.create ~n:10 ~s:1.0 in
  check int_t "n" 10 (Zipf.n z);
  let total = ref 0.0 in
  for i = 0 to 9 do
    total := !total +. Zipf.probability z i
  done;
  check bool_t "sums to 1" true (Float.abs (!total -. 1.0) < 1e-9);
  for i = 0 to 8 do
    check bool_t "monotone decreasing" true (Zipf.probability z i >= Zipf.probability z (i + 1))
  done

let test_zipf_sampling () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let g = Prng.create ~seed:51L in
  let counts = Array.make 100 0 in
  let n = 20000 in
  for _ = 1 to n do
    let v = Zipf.sample z g in
    check bool_t "in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 should be sampled far more than rank 50. *)
  check bool_t "skew" true (counts.(0) > 5 * counts.(50));
  let expected = float_of_int n *. Zipf.probability z 0 in
  check bool_t "rank-0 frequency near expectation" true
    (Float.abs (float_of_int counts.(0) -. expected) < 0.2 *. expected)

let test_zipf_statistical_sanity () =
  (* 10k seeded draws from Zipf(1.0): the empirical rank-frequency curve
     must track the analytic mass within a binomial confidence band and
     stay monotone non-increasing up to sampling noise.  The PRNG is
     seeded, so the draw sequence is fixed — the tolerances only leave
     room for a future PRNG swap, not for flakiness. *)
  let n_ranks = 20 and draws = 10_000 in
  let z = Zipf.create ~n:n_ranks ~s:1.0 in
  let g = Prng.create ~seed:4242L in
  let counts = Array.make n_ranks 0 in
  for _ = 1 to draws do
    let v = Zipf.sample z g in
    counts.(v) <- counts.(v) + 1
  done;
  let freq i = float_of_int counts.(i) /. float_of_int draws in
  let nf = float_of_int draws in
  for i = 0 to n_ranks - 1 do
    let p = Zipf.probability z i in
    (* 4-sigma binomial band around the analytic mass *)
    let band = 4.0 *. sqrt (p *. (1.0 -. p) /. nf) in
    check bool_t
      (Printf.sprintf "rank %d frequency %.4f within %.4f of analytic %.4f" i (freq i)
         band p)
      true
      (Float.abs (freq i -. p) <= band)
  done;
  for i = 0 to n_ranks - 2 do
    let p_i = Zipf.probability z i and p_j = Zipf.probability z (i + 1) in
    (* adjacent ranks may invert only within the noise of both counts *)
    let slack = 4.0 *. sqrt ((p_i +. p_j) /. nf) in
    check bool_t
      (Printf.sprintf "ranks %d >= %d up to noise" i (i + 1))
      true
      (freq i +. slack >= freq (i + 1))
  done;
  (* the heavy head is unmistakable regardless of noise *)
  check bool_t "rank 0 strictly dominates rank 4" true (counts.(0) > counts.(4))

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:4 ~s:0.0 in
  for i = 0 to 3 do
    check bool_t "uniform" true (Float.abs (Zipf.probability z i -. 0.25) < 1e-9)
  done

let test_zipf_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool_t "n=0" true (raises (fun () -> Zipf.create ~n:0 ~s:1.0));
  check bool_t "s<0" true (raises (fun () -> Zipf.create ~n:5 ~s:(-1.0)))

(* ---------------- Diurnal ---------------- *)

let test_diurnal_rate_bounds () =
  let d = Diurnal.create ~base_rate:10.0 ~peak_factor:5.0 ~period:86400.0 in
  check bool_t "trough at 0" true (Float.abs (Diurnal.rate_at d 0.0 -. 10.0) < 1e-9);
  check bool_t "peak at half period" true
    (Float.abs (Diurnal.rate_at d 43200.0 -. 50.0) < 1e-9);
  for i = 0 to 20 do
    let r = Diurnal.rate_at d (4320.0 *. float_of_int i) in
    check bool_t "within bounds" true (r >= 10.0 -. 1e-9 && r <= 50.0 +. 1e-9)
  done;
  check bool_t "mean" true (Float.abs (Diurnal.mean_rate d -. 30.0) < 1e-9)

let test_diurnal_arrivals_monotone () =
  let d = Diurnal.create ~base_rate:5.0 ~peak_factor:3.0 ~period:100.0 in
  let g = Prng.create ~seed:52L in
  let t = ref 0.0 in
  for _ = 1 to 200 do
    let next = Diurnal.next_arrival d g ~now:!t in
    check bool_t "strictly forward" true (next > !t);
    t := next
  done

let test_diurnal_rate_realized () =
  (* Over several periods the realized arrival rate approaches the mean
     rate. *)
  let d = Diurnal.create ~base_rate:5.0 ~peak_factor:3.0 ~period:50.0 in
  let g = Prng.create ~seed:53L in
  let t = ref 0.0 and count = ref 0 in
  while !t < 500.0 do
    t := Diurnal.next_arrival d g ~now:!t;
    incr count
  done;
  let realized = float_of_int !count /. 500.0 in
  check bool_t "realized near mean" true (Float.abs (realized -. Diurnal.mean_rate d) < 1.5)

(* ---------------- Catalog ---------------- *)

let test_catalog_shapes () =
  let g = Prng.create ~seed:54L in
  let products = Catalog.product_catalog g ~n:50 in
  check int_t "50 products" 50 (List.length products);
  List.iter
    (fun (key, doc) ->
      check bool_t "product key" true (String.length key > 8 && String.sub key 0 8 = "product:");
      List.iter
        (fun f -> check bool_t ("has " ^ f) true (Document.mem doc f))
        [ "name"; "category"; "price"; "stock"; "description" ])
    products;
  let articles = Catalog.reference_db g ~n:30 in
  check int_t "30 articles" 30 (List.length articles);
  List.iter
    (fun (_, doc) ->
      List.iter
        (fun f -> check bool_t ("has " ^ f) true (Document.mem doc f))
        [ "title"; "journal"; "year"; "citations"; "abstract" ])
    articles;
  (* Keys are unique and sorted-compatible. *)
  let keys = List.map fst products in
  check int_t "unique keys" 50 (List.length (List.sort_uniq String.compare keys))

(* ---------------- Mix ---------------- *)

let make_mix ?(weights = Mix.default_weights) () =
  let g = Prng.create ~seed:55L in
  let keys = Array.init 100 (Printf.sprintf "product:%05d") in
  Mix.create ~rng:g ~keys ~weights ()

let test_mix_queries_valid () =
  let mix = make_mix () in
  for _ = 1 to 500 do
    let q = Mix.next_query mix in
    check bool_t "validates" true (Query.validate q = Ok ())
  done;
  check int_t "counted" 500 (Mix.queries_generated mix)

let test_mix_distribution () =
  let mix = make_mix () in
  let point = ref 0 and scan = ref 0 and full = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    match Query.cost_class (Mix.next_query mix) with
    | `Point -> incr point
    | `Scan -> incr scan
    | `Full_scan -> incr full
  done;
  (* Weights: 70% point, 15% range(scan), 10% grep(full), 5% agg(full). *)
  check bool_t "points near 70%" true
    (!point > n * 60 / 100 && !point < n * 80 / 100);
  check bool_t "scans present" true (!scan > n * 8 / 100);
  check bool_t "full scans present" true (!full > n * 8 / 100)

let test_mix_writes () =
  let mix = make_mix () in
  for _ = 1 to 100 do
    match Mix.next_write mix with
    | Oplog.Set_field { key; field; _ } ->
      check bool_t "known key" true (String.length key > 0 && String.sub key 0 8 = "product:");
      check bool_t "price or stock" true (field = "price" || field = "stock")
    | _ -> Alcotest.fail "expected Set_field"
  done

let test_mix_point_reads_skewed () =
  let mix = make_mix ~weights:{ Mix.point = 1.0; range = 0.0; grep = 0.0; aggregate = 0.0 } () in
  let counts = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    match Mix.next_query mix with
    | Query.Select { from = Query.Key k; _ } ->
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
    | _ -> Alcotest.fail "expected point read"
  done;
  let top = Option.value ~default:0 (Hashtbl.find_opt counts "product:00000") in
  check bool_t "head key dominates" true (top > 100)

(* ---------------- Driver ---------------- *)

let test_driver_end_to_end () =
  let config =
    { Config.default with Config.max_latency = 2.0; keepalive_period = 0.5 }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:4 ~config
      ~net:System.lan_net ~seed:61L ()
  in
  let g = Prng.create ~seed:62L in
  let content = Catalog.product_catalog g ~n:40 in
  System.load_content system content;
  let keys = Array.of_list (List.map fst content) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  Driver.run_reads driver ~rate:10.0 ~duration:30.0;
  System.run_for system 120.0;
  let s = Driver.summary driver in
  check bool_t "reads happened" true (s.Driver.reads_completed > 100);
  check int_t "everything accounted" s.Driver.reads_completed
    (s.Driver.reads_accepted + s.Driver.reads_gave_up + s.Driver.served_by_master);
  check int_t "honest run: no wrong accepts" 0 s.Driver.accepted_wrong;
  check int_t "honest run: no gave-ups" 0 s.Driver.reads_gave_up;
  check bool_t "latency recorded" true (s.Driver.mean_latency > 0.0);
  check bool_t "p99 >= mean" true (s.Driver.p99_latency >= s.Driver.mean_latency *. 0.5);
  check int_t "reports retained" s.Driver.reads_completed (List.length (Driver.reports driver))

let test_driver_writes () =
  let config = { Config.default with Config.max_latency = 1.0; keepalive_period = 0.2 } in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:2 ~config
      ~net:System.lan_net ~seed:63L ()
  in
  let g = Prng.create ~seed:64L in
  let content = Catalog.product_catalog g ~n:10 in
  System.load_content system content;
  let keys = Array.of_list (List.map fst content) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  Driver.run_writes driver ~rate:1.0 ~duration:20.0 ~writer:0;
  System.run_for system 120.0;
  check bool_t "writes committed" true
    (Secrep_sim.Stats.get (System.stats system) "system.writes_committed_acked" > 5)

(* [Driver] takes its wrong-accept count from the system's oracle.  It
   must equal a relabelling of every accepted report against the oracle,
   and the count pinned for this run. *)
let test_driver_counts_wrong_accepts () =
  let config =
    {
      Config.default with
      Config.max_latency = 2.0;
      keepalive_period = 0.5;
      double_check_probability = 0.0;
      audit_enabled = false;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:4 ~config
      ~net:System.lan_net ~seed:81L ()
  in
  let g = Prng.create ~seed:82L in
  let content = Catalog.product_catalog g ~n:40 in
  System.load_content system content;
  System.set_slave_behavior system ~slave:(System.slave_of_client system 0)
    (Fault.Malicious { probability = 0.5; mode = Fault.Corrupt_result; from_time = 0.0 });
  let keys = Array.of_list (List.map fst content) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  Driver.run_reads driver ~rate:10.0 ~duration:30.0;
  System.run_for system 120.0;
  let s = Driver.summary driver in
  let relabelled =
    List.length
      (List.filter
         (fun r ->
           match r.Client.outcome with
           | `Accepted result ->
             System.check_result system ~version:r.Client.version r.Client.query
               ~digest:(Canonical.result_digest result)
             = Some false
           | `Served_by_master _ | `Gave_up -> false)
         (Driver.reports driver))
  in
  check int_t "equals relabelling every report" relabelled s.Driver.accepted_wrong;
  check int_t "equals the pinned count" 33 s.Driver.accepted_wrong

let () =
  Alcotest.run "secrep_workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "probabilities" `Quick test_zipf_probabilities;
          Alcotest.test_case "sampling" `Quick test_zipf_sampling;
          Alcotest.test_case "statistical sanity vs analytic mass" `Quick
            test_zipf_statistical_sanity;
          Alcotest.test_case "uniform when s=0" `Quick test_zipf_uniform_when_s0;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
        ] );
      ( "diurnal",
        [
          Alcotest.test_case "rate bounds" `Quick test_diurnal_rate_bounds;
          Alcotest.test_case "arrivals monotone" `Quick test_diurnal_arrivals_monotone;
          Alcotest.test_case "realized rate" `Quick test_diurnal_rate_realized;
        ] );
      ("catalog", [ Alcotest.test_case "shapes" `Quick test_catalog_shapes ]);
      ( "mix",
        [
          Alcotest.test_case "queries valid" `Quick test_mix_queries_valid;
          Alcotest.test_case "class distribution" `Quick test_mix_distribution;
          Alcotest.test_case "writes" `Quick test_mix_writes;
          Alcotest.test_case "zipf skew on point reads" `Quick test_mix_point_reads_skewed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "end to end" `Quick test_driver_end_to_end;
          Alcotest.test_case "writes" `Quick test_driver_writes;
          Alcotest.test_case "wrong accepts from the system oracle" `Quick
            test_driver_counts_wrong_accepts;
        ] );
    ]
