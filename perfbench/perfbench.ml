(* Wall-clock benchmark of the simulator.

   Each workload is a fixed-size open-loop run (arrivals drawn up front
   from the seed) driven through the libraries' public API.  An untraced
   invocation repeats the whole run (set-up, run phase, output checks)
   until [--seconds] have passed and reports medians of the end-to-end
   metrics.  A traced invocation makes one untraced reference run, then a
   run of the same inputs with probes attached, then replays what the
   probes captured through each layer's public functions to price one
   call per layer.  Nothing inside lib/ is instrumented: every layer
   figure is measured from here. *)

module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Stats = Secrep_sim.Stats
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Store = Secrep_store.Store
module Snapshot = Secrep_store.Snapshot
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Canonical = Secrep_store.Canonical
module Oplog = Secrep_store.Oplog
module Config = Secrep_core.Config
module System = Secrep_core.System
module Client = Secrep_core.Client
module Master = Secrep_core.Master
module Auditor = Secrep_core.Auditor
module Corrective = Secrep_core.Corrective
module Fault = Secrep_core.Fault
module Pledge = Secrep_core.Pledge
module Wire = Secrep_core.Wire
module Driver = Secrep_workload.Driver
module Mix = Secrep_workload.Mix
module Catalog = Secrep_workload.Catalog
module Cross = Secrep_workload.Cross
module Deployment = Secrep_shard.Deployment
module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage

let now = Unix.gettimeofday
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* -- workloads ----------------------------------------------------------- *)

type workload = Grep_mix | Monitored_point | Sharded_rsa

let workloads =
  [ ("grep-mix", Grep_mix); ("monitored-point", Monitored_point); ("sharded-rsa", Sharded_rsa) ]

let name_of w = fst (List.find (fun (_, x) -> x = w) workloads)

(* Simulated seconds of arrivals per run; the run phase then drains for
   the same slack the CLI's [run] gives in-flight operations. *)
let arrival_window = 60.0
let run_horizon = arrival_window +. (4.0 *. Config.default.Config.max_latency) +. 60.0

(* The K=1 workloads use 3 masters x 2 slaves at 100 reads/s.  The CLI's
   default 2 x 3 topology at 200 reads/s falls off a latency cliff on
   some seeds (seed 7: mean read latency 4.3 s against ~40 ms), which
   would make a held-out seed measure a different regime; this size
   keeps the p99 within 1.2x across seeds 1-12. *)
let k1_masters = 3
let k1_slaves_per_master = 2
let k1_clients = 8
let k1_items = 300
let k1_read_rate = 100.0

let no_grep = { Mix.point = 0.70; range = 0.15; grep = 0.0; aggregate = 0.05 }
let point_range = { Mix.point = 0.80; range = 0.20; grep = 0.0; aggregate = 0.0 }

(* -- probes (traced runs only) ------------------------------------------- *)

type layer = { mutable calls : int; mutable self_s : float; mutable words : float }

let layer () = { calls = 0; self_s = 0.0; words = 0.0 }

(* Time spent in probed calls nested inside the one being timed, so each
   layer reports self time (the SLO engine's alerts re-enter the
   lineage subscriber). *)
let nested_s = ref 0.0
let nested_words = ref 0.0

let timed l f x =
  let outer_s = !nested_s and outer_words = !nested_words in
  nested_s := 0.0;
  nested_words := 0.0;
  let w0 = Gc.minor_words () and t0 = now () in
  f x;
  let dt = now () -. t0 and dw = Gc.minor_words () -. w0 in
  l.calls <- l.calls + 1;
  l.self_s <- l.self_s +. dt -. !nested_s;
  l.words <- l.words +. dw -. !nested_words;
  nested_s := outer_s +. dt;
  nested_words := outer_words +. dw

type probe = {
  kinds : (string, int) Hashtbl.t;  (** live event counts by kind *)
  mutable pledges : (int * Pledge.t) list;  (** (shard, pledge) delivered to an auditor *)
  slo : layer;
  lineage : layer;
}

let attach_probe p shard sys =
  Trace.on_emit (System.trace sys) (fun r ->
      let k = Event.kind r.Trace.event in
      Hashtbl.replace p.kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt p.kinds k)));
  System.on_pledge_submitted sys (fun pl -> p.pledges <- (shard, pl) :: p.pledges)

let kind_count p k = Option.value ~default:0 (Hashtbl.find_opt p.kinds k)

(* -- one built run ------------------------------------------------------- *)

type instance = {
  systems : System.t array;
  deployment : Deployment.t option;
  advance : unit -> unit;  (** the run phase *)
  reports : unit -> (int * Client.read_report) list;  (** (shard, report) *)
  commits : (int * Oplog.op) list array;  (** per shard: committed (version, op) *)
  writes_issued : int;
  monitor : (Slo.t * Lineage.t) option;
  liar : unit -> int option;  (** the lying slave, once lying has started *)
  base : Snapshot.t array;  (** each shard's content right after loading *)
  scheme : Sig_scheme.scheme;
  driver_labels : bool;  (** [Driver] labels each accepted read a second time *)
  arrivals_s : float;
}

let poisson rng ~rate =
  let rec go t acc =
    let t = t +. Prng.exponential rng ~mean:(1.0 /. rate) in
    if t > arrival_window then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

let record_commit commits shard op = function
  | Master.Committed { version } -> commits.(shard) <- (version, op) :: commits.(shard)
  | Master.Denied _ -> ()

(* The CLI's [run] path: one System driven by [Driver], optionally with
   the SLO engine and lineage attached the way [run --slo] attaches them,
   and one slave lying from t = 10 s. *)
let build_single ~seed ~probe ~weights ~write_rate ~monitored ~liar =
  let config = Config.default in
  let system =
    System.create ~n_masters:k1_masters ~slaves_per_master:k1_slaves_per_master
      ~n_clients:k1_clients ~config ~seed:(Int64.of_int seed) ()
  in
  Option.iter (fun p -> attach_probe p 0 system) probe;
  let monitor =
    if not monitored then None
    else begin
      let slo = Slo.create ~trace:(System.trace system) ~config:(Slo.config config) () in
      let lineage = Lineage.create () in
      (match probe with
      | None ->
        Trace.on_emit (System.trace system) (fun r ->
            Lineage.observe lineage r;
            Slo.observe slo r)
      | Some p ->
        Trace.on_emit (System.trace system) (fun r ->
            timed p.lineage (Lineage.observe lineage) r;
            timed p.slo (Slo.observe slo) r));
      Some (slo, lineage)
    end
  in
  let g = Prng.create ~seed:(Int64.of_int (seed + 1)) in
  let content = Catalog.product_catalog g ~n:k1_items in
  System.load_content system content;
  (* The liar is the slave serving client 0 when lying starts: a fixed
     slave id serves no reads at all on some seeds. *)
  let liar_id = ref None in
  if liar then
    ignore
      (Sim.schedule_at (System.sim system) ~time:10.0 (fun () ->
           let slave = System.slave_of_client system 0 in
           liar_id := Some slave;
           System.set_slave_behavior system ~slave
             (Fault.Malicious
                { probability = 0.05; mode = Fault.Corrupt_result; from_time = 10.0 })));
  let keys = Array.of_list (List.map fst content) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys ~weights () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  let commits = [| [] |] in
  let t0 = now () in
  Driver.run_reads driver ~rate:k1_read_rate ~duration:arrival_window;
  let wmix = Mix.create ~rng:(Prng.split g) ~keys () in
  let write_times = poisson (Prng.split g) ~rate:write_rate in
  List.iter
    (fun time ->
      ignore
        (Sim.schedule_at (System.sim system) ~time (fun () ->
             let op = Mix.next_write wmix in
             System.write system ~client:0 op ~on_done:(record_commit commits 0 op))))
    write_times;
  let arrivals_s = now () -. t0 in
  {
    systems = [| system |];
    deployment = None;
    advance = (fun () -> System.run_until system run_horizon);
    reports = (fun () -> List.map (fun r -> (0, r)) (Driver.reports driver));
    commits;
    writes_issued = List.length write_times;
    monitor;
    liar = (fun () -> !liar_id);
    base = [| Store.snapshot (Master.store (System.master system 0)) |];
    scheme = config.Config.scheme;
    driver_labels = true;
    arrivals_s;
  }

(* The CLI's sharded path: K=16 shards under RSA-512 with a cross-shard
   Zipf read workload whose hot shard rotates every quarter of the run.
   Writes pick shards uniformly so each shard's writes stay inside the
   max_latency commit spacing. *)
let n_shards = 16

let build_sharded ~seed ~probe ~domains =
  let scheme = Sig_scheme.Rsa { bits = 512 } in
  let config = { Config.default with Config.scheme } in
  let d =
    Deployment.create ~n_shards ~n_masters:1 ~replication_factor:3 ~n_clients:2 ~config
      ~seed:(Int64.of_int seed) ~items_per_shard:100 ~domains ()
  in
  let systems = Array.init n_shards (Deployment.system d) in
  Option.iter (fun p -> Array.iteri (attach_probe p) systems) probe;
  let reports = Array.make n_shards [] in
  let commits = Array.make n_shards [] in
  let g = Prng.create ~seed:(Int64.of_int (seed + 1)) in
  let mixes =
    Array.init n_shards (fun i ->
        Mix.create ~rng:(Prng.split g) ~keys:(Deployment.keys d i) ~weights:no_grep ())
  in
  let pick_client = Prng.split g in
  let t0 = now () in
  let cross =
    Cross.create ~rng:(Prng.split g) ~n_shards ~rotate_period:(arrival_window /. 4.0) ()
  in
  (* Shard callbacks touch only their own shard's slots, as the parallel
     scheduler requires; client ids are drawn here, in arrival order. *)
  List.iter
    (fun (at, shard) ->
      let client = Prng.int pick_client 2 in
      Deployment.schedule d ~shard ~time:at (fun () ->
          Deployment.read d ~shard ~client (Mix.next_query mixes.(shard)) ~on_done:(fun r ->
              reports.(shard) <- r :: reports.(shard))))
    (Cross.arrivals cross ~rate:400.0 ~duration:arrival_window);
  let wcross = Cross.create ~rng:(Prng.split g) ~n_shards ~s:0.0 () in
  let writes = Cross.arrivals wcross ~rate:1.6 ~duration:arrival_window in
  List.iter
    (fun (at, shard) ->
      Deployment.schedule d ~shard ~time:at (fun () ->
          let op = Mix.next_write mixes.(shard) in
          Deployment.write d ~shard ~client:0 op ~on_done:(record_commit commits shard op)))
    writes;
  let arrivals_s = now () -. t0 in
  {
    systems;
    deployment = Some d;
    advance = (fun () -> Deployment.run_until d run_horizon);
    reports =
      (fun () ->
        List.concat
          (List.init n_shards (fun i -> List.rev_map (fun r -> (i, r)) reports.(i))));
    commits;
    writes_issued = List.length writes;
    monitor = None;
    liar = (fun () -> None);
    base = Array.map (fun s -> Store.snapshot (Master.store (System.master s 0))) systems;
    scheme;
    driver_labels = false;
    arrivals_s;
  }

let build w ~seed ~probe ~domains =
  match w with
  | Grep_mix ->
    build_single ~seed ~probe ~weights:Mix.default_weights ~write_rate:0.05 ~monitored:false
      ~liar:false
  | Monitored_point ->
    build_single ~seed ~probe ~weights:point_range ~write_rate:0.15 ~monitored:true
      ~liar:true
  | Sharded_rsa -> build_sharded ~seed ~probe ~domains

let total_events inst =
  Array.fold_left (fun acc s -> acc + Sim.executed_events (System.sim s)) 0 inst.systems

(* Fingerprint of one shard's event stream: its length, the retained
   ring rendered as JSONL, and the final content hash. *)
let stream_digest sys =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            string_of_int (Trace.total_logged (System.trace sys));
            string_of_int (Sim.executed_events (System.sim sys));
            Store.content_hash (Master.store (System.master sys 0));
            Export.jsonl_of_trace (System.trace sys);
          ]))

(* -- one measured run ---------------------------------------------------- *)

type sample = {
  setup_s : float;
  run_s : float;
  events : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  attempted : int;  (** reads and writes issued *)
  reads_done : int;  (** accepted or served by a master *)
  accepted : int;
  failed : int;  (** gave-up or never-answered reads plus uncommitted writes *)
  latencies : float array;  (** sorted, simulated seconds *)
  digests : string array;
  merged_records : int;  (** [Shard_merged] records of a parallel run *)
  problems : string list;  (** failed output checks *)
}

let checks w inst =
  let stat name =
    Array.fold_left (fun acc s -> acc + Stats.get (System.stats s) name) 0 inst.systems
  in
  let excluded =
    List.concat_map
      (fun s -> Corrective.excluded (System.corrective s))
      (Array.to_list inst.systems)
  in
  let show l = String.concat "," (List.map string_of_int l) in
  let fail cond msg = if cond then [] else [ msg ] in
  match w with
  | Grep_mix | Sharded_rsa ->
    fail (stat "system.accepted_wrong" = 0)
      (Printf.sprintf "%d wrong results accepted" (stat "system.accepted_wrong"))
    @ fail (excluded = []) (Printf.sprintf "honest slaves excluded: [%s]" (show excluded))
  | Monitored_point ->
    let detection =
      match inst.monitor with Some (slo, _) -> Slo.was_raised slo "detection" | None -> false
    in
    let liar = Option.to_list (inst.liar ()) in
    fail (excluded = liar)
      (Printf.sprintf "excluded [%s], expected exactly [%s]" (show excluded) (show liar))
    @ fail (not detection) "a detection alert was raised"

let measure w ~seed ~probe ~domains =
  Gc.compact ();
  let t0 = now () in
  let inst = build w ~seed ~probe ~domains in
  let setup_s = now () -. t0 in
  let ev0 = total_events inst in
  let g0 = Gc.quick_stat () in
  let t1 = now () in
  inst.advance ();
  let run_s = now () -. t1 in
  let g1 = Gc.quick_stat () in
  let events = total_events inst - ev0 in
  Option.iter
    (fun (slo, lineage) ->
      Slo.finalize slo ~now:run_horizon;
      Lineage.finalize lineage)
    inst.monitor;
  let reports = inst.reports () in
  let reads_issued =
    Array.fold_left
      (fun acc s ->
        let n = ref acc in
        for c = 0 to System.n_clients s - 1 do
          n := !n + Client.reads_issued (System.client s c)
        done;
        !n)
      0 inst.systems
  in
  let accepted, latencies =
    List.fold_left
      (fun (acc, lat) (_, r) ->
        match r.Client.outcome with
        | `Accepted _ -> (acc + 1, r.Client.latency :: lat)
        | `Served_by_master _ -> (acc, r.Client.latency :: lat)
        | `Gave_up -> (acc, lat))
      (0, []) reports
  in
  let latencies = Array.of_list latencies in
  Array.sort Float.compare latencies;
  let reads_done = Array.length latencies in
  let committed = Array.fold_left (fun acc l -> acc + List.length l) 0 inst.commits in
  let merged_records =
    match inst.deployment with
    | None -> 0
    | Some d ->
      List.fold_left
        (fun acc r ->
          match r.Trace.event with Event.Shard_merged { events; _ } -> acc + events | _ -> acc)
        0
        (Trace.to_list (Deployment.trace d))
  in
  ( {
    setup_s;
    run_s;
    events;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    attempted = reads_issued + inst.writes_issued;
    reads_done;
    accepted;
    failed = reads_issued - reads_done + (inst.writes_issued - committed);
    latencies;
    digests = Array.map stream_digest inst.systems;
    merged_records;
    problems = checks w inst;
  },
    inst )

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. fi n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* -- output -------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  List.iter (fun x -> Printf.printf "  %-40s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.value) x.unit_)
          metrics))

let abort problems =
  List.iter prerr_endline problems;
  prerr_endline "perfbench: output check failed";
  exit 1

(* -- untraced: end-to-end metrics ---------------------------------------- *)

let sub_seed seed j = if j = 0 then seed else Hashtbl.hash (seed, j)

let end_to_end w ~seed ~seconds ~domains ~inputs =
  let start = now () in
  let rec loop i acc =
    if i >= inputs && now () -. start >= seconds then List.rev acc
    else begin
      let s, _ = measure w ~seed:(sub_seed seed (i mod inputs)) ~probe:None ~domains in
      if s.problems <> [] then abort s.problems;
      if i >= inputs && (List.nth (List.rev acc) (i - inputs)).digests <> s.digests then
        abort [ "event streams differ between repetitions of the same inputs" ];
      loop (i + 1) (s :: acc)
    end
  in
  let samples = loop 0 [] in
  (* Set-up takes milliseconds on the K=1 workloads, so its median also
     takes set-up-only samples: at least 11 in all, within 2 s. *)
  let extra_start = now () in
  let rec more_setups n acc =
    if n >= 11 || now () -. extra_start > 2.0 then acc
    else begin
      Gc.compact ();
      let t0 = now () in
      ignore (build w ~seed:(sub_seed seed (n mod inputs)) ~probe:None ~domains);
      more_setups (n + 1) ((now () -. t0) :: acc)
    end
  in
  let setups =
    more_setups (List.length samples) (List.map (fun s -> s.setup_s) samples)
  in
  (* Simulated outcomes are deterministic per input set: take them from
     one cycle, as medians over its input sets. *)
  let cycle = List.filteri (fun i _ -> i < inputs) samples in
  let latency_ms p = median (List.map (fun s -> 1000.0 *. percentile s.latencies p) cycle) in
  let sum f l = List.fold_left (fun acc s -> acc + f s) 0 l in
  let med f = median (List.map f samples) in
  Printf.printf "%s seed=%d: %d run(s) over %d input set(s), %d reads and %d events per run\n"
    (name_of w)
    seed (List.length samples) inputs
    (sum (fun s -> s.reads_done) cycle / inputs)
    (sum (fun s -> s.events) cycle / inputs);
  print_result
    ~attempted:(sum (fun s -> s.attempted) samples)
    ~failed:(sum (fun s -> s.failed) samples)
    [
      m "reads_per_wall_s" "reads/s" (med (fun s -> fi s.reads_done /. s.run_s));
      m "events_per_wall_s" "events/s" (med (fun s -> fi s.events /. s.run_s));
      m "minor_words_per_read" "words/read" (med (fun s -> ratio s.minor_words (fi s.reads_done)));
      m "peak_heap_mb" "MB" (peak_heap_mb ());
      m "setup_s" "s" (median setups);
      m "completed_op_ratio" "ratio"
        (ratio
           (fi (sum (fun s -> s.attempted - s.failed) cycle))
           (fi (sum (fun s -> s.attempted) cycle)));
      m "sim_read_p50_ms" "ms" (latency_ms 50.0);
      m "sim_read_p99_ms" "ms" (latency_ms 99.0);
    ]

(* -- traced: per-layer metrics ------------------------------------------- *)

let classes = [| "point"; "range"; "grep"; "aggregate" |]

let class_of = function
  | Query.Select { from = Query.Key _; _ } -> 0
  | Query.Select _ -> 1
  | Query.Grep _ -> 2
  | Query.Aggregate _ -> 3

(* Replay every completed read through [Query_eval.execute] (and the
   result through [Canonical.result_digest]) on a store rebuilt from the
   shard's loaded content and its committed writes, walking versions
   forward. *)
let replay_store inst reads =
  let exec = Array.init 4 (fun _ -> layer ()) in
  let scanned = Array.make 4 0 in
  let digest = layer () in
  Array.iteri
    (fun shard base ->
      let store = Store.create () in
      Store.restore store base;
      let pending =
        ref (List.sort (fun (a, _) (b, _) -> Int.compare a b) inst.commits.(shard))
      in
      let rec catch_up version =
        match !pending with
        | (v, op) :: rest when v = Store.version store + 1 && v <= version ->
          Store.apply store op;
          pending := rest;
          catch_up version
        | _ -> ()
      in
      List.iter
        (fun (s, version, query) ->
          if s = shard then begin
            catch_up version;
            if Store.version store = version then begin
              let c = class_of query in
              let result = ref None in
              timed exec.(c)
                (fun q ->
                  match Query_eval.execute store q with
                  | Ok o -> result := Some o
                  | Error _ -> ())
                query;
              match !result with
              | Some o ->
                scanned.(c) <- scanned.(c) + o.Query_eval.scanned;
                timed digest (fun r -> ignore (Canonical.result_digest r)) o.Query_eval.result
              | None -> ()
            end
          end)
        reads)
    inst.base;
  (exec, scanned, digest)

let sample_payloads pledges =
  List.filteri (fun i _ -> i < 2000) pledges |> List.map Pledge.signed_payload

let layers w ~seed ~domains =
  let reference, _ = measure w ~seed ~probe:None ~domains in
  if reference.problems <> [] then abort reference.problems;
  let p =
    { kinds = Hashtbl.create 64; pledges = []; slo = layer (); lineage = layer () }
  in
  (* The traced sharded run is sequential, so the parallel reference
     run's per-shard streams are checked against it. *)
  let traced, inst = measure w ~seed ~probe:(Some p) ~domains:0 in
  if traced.problems <> [] then abort traced.problems;
  if traced.digests <> reference.digests then
    abort [ "traced run's event streams differ from the untraced run's" ];
  let reads_done = fi traced.reads_done in
  let reads =
    List.filter_map
      (fun (shard, r) ->
        match r.Client.outcome with
        | `Accepted _ | `Served_by_master _ -> Some (shard, r.Client.version, r.Client.query)
        | `Gave_up -> None)
      (inst.reports ())
    |> List.stable_sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
  in
  let exec, scanned, digest = replay_store inst reads in
  let per_call l = ratio (l.self_s *. 1e6) (fi l.calls) in
  (* Ground-truth labelling: [System.read] labels every accepted read,
     and [Driver] labels it again. *)
  let oracle_calls = traced.accepted * if inst.driver_labels then 2 else 1 in
  let oracle = layer () in
  List.iter
    (fun (shard, version, query) ->
      timed oracle
        (fun q -> ignore (System.reexec_digest inst.systems.(shard) ~version q))
        query)
    reads;
  let pledges = List.rev_map snd p.pledges in
  let wire = layer () in
  let bytes = ref 0 in
  List.iter
    (timed wire (fun pl ->
         let s = Wire.encode_pledge pl in
         bytes := !bytes + String.length s;
         ignore (Wire.decode_pledge s)))
    pledges;
  let key = Sig_scheme.generate inst.scheme (Prng.create ~seed:(Int64.of_int seed)) in
  let public = Sig_scheme.public_of key in
  let sign = layer () and verify = layer () in
  List.iter
    (fun msg ->
      let signature = ref "" in
      timed sign (fun m -> signature := Sig_scheme.sign key m) msg;
      timed verify
        (fun m -> ignore (Sig_scheme.verify public ~msg:m ~signature:!signature))
        msg)
    (sample_payloads pledges);
  let audited =
    Array.fold_left
      (fun acc s ->
        List.fold_left (fun acc a -> acc + Auditor.audited a) acc (System.auditors s))
      0 inst.systems
  in
  let sign_calls =
    kind_count p "pledge_signed" + kind_count p "pledge_batch_signed"
    + kind_count p "keepalive_sent"
  in
  let verify_calls = kind_count p "pledge_verified" + audited in
  let shard_events = Array.map (fun s -> Sim.executed_events (System.sim s)) inst.systems in
  let workers = min (max 1 domains) (Array.length shard_events) in
  let worker_events = Array.make workers 0 in
  Array.iteri (fun i e -> worker_events.(i mod workers) <- worker_events.(i mod workers) + e)
    shard_events;
  let max_over_mean =
    ratio
      (fi (Array.fold_left max 0 worker_events))
      (fi (Array.fold_left ( + ) 0 worker_events) /. fi workers)
  in
  (* Live-run seconds each layer accounts for: live call counts times
     the replayed per-call cost.  Query executions, by class, are the
     completed reads (the slave's execution), the distinct (shard,
     version, query) pledges (the auditors re-execute each once; repeats
     hit their result cache) and the double-checked reads (the
     master's execution). *)
  let executions = Array.make 4 0 in
  let count q = executions.(class_of q) <- executions.(class_of q) + 1 in
  List.iter (fun (_, _, q) -> count q) reads;
  let audited_once = Hashtbl.create 1024 in
  List.iter
    (fun (shard, pl) ->
      let key = (shard, Pledge.version pl, Canonical.query_digest pl.Pledge.query) in
      if not (Hashtbl.mem audited_once key) then begin
        Hashtbl.add audited_once key ();
        count pl.Pledge.query
      end)
    p.pledges;
  List.iter
    (fun (_, r) -> if r.Client.double_checked then count r.Client.query)
    (inst.reports ());
  let exec_s = ref 0.0 in
  Array.iteri (fun c n -> exec_s := !exec_s +. (fi n *. per_call exec.(c) *. 1e-6)) executions;
  let attributed =
    [
      ("store.exec", !exec_s);
      ("store.digest", fi (Array.fold_left ( + ) 0 executions) *. per_call digest *. 1e-6);
      ("core.oracle", fi oracle_calls *. per_call oracle *. 1e-6);
      ("core.wire", fi (List.length pledges) *. per_call wire *. 1e-6);
      ("crypto.sign", fi sign_calls *. per_call sign *. 1e-6);
      ("crypto.verify", fi verify_calls *. per_call verify *. 1e-6);
      ("monitor.slo", p.slo.self_s);
      ("monitor.lineage", p.lineage.self_s);
    ]
  in
  let attributed_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 attributed in
  Printf.printf "%s seed=%d: traced run %.3f s (untraced %.3f s); attributed seconds:\n"
    (name_of w)
    seed traced.run_s reference.run_s;
  List.iter
    (fun (name, s) -> Printf.printf "  %-16s %8.3f s  %5.1f%%\n" name s (100.0 *. ratio s traced.run_s))
    (List.sort (fun (_, a) (_, b) -> Float.compare b a) attributed);
  Printf.printf "  %-16s %8.3f s\n" "unattributed" (traced.run_s -. attributed_s);
  let store_metrics =
    List.concat
      (List.init 4 (fun c ->
           let pre = "store.exec." ^ classes.(c) in
           let l = exec.(c) in
           [
             m (pre ^ ".calls") "count" (fi l.calls);
             m (pre ^ ".us_per_call") "us" (per_call l);
             m (pre ^ ".scanned_per_call") "docs" (ratio (fi scanned.(c)) (fi l.calls));
             m (pre ^ ".minor_words_per_call") "words" (ratio l.words (fi l.calls));
           ]))
  in
  let ref_reads = fi reference.reads_done in
  print_result
    ~attempted:reference.attempted
    ~failed:reference.failed
    ([
       m "sim.events" "count" (fi traced.events);
       m "sim.events_per_read" "events/read" (ratio (fi traced.events) reads_done);
       m "sim.trace_records" "count"
         (fi
            (Array.fold_left (fun acc s -> acc + Trace.total_logged (System.trace s)) 0
               inst.systems));
     ]
    @ store_metrics
    @ [
        m "store.digest.us_per_call" "us" (per_call digest);
        m "core.oracle.calls_per_read" "calls/read" (ratio (fi oracle_calls) reads_done);
        m "core.oracle.us_per_call" "us" (per_call oracle);
        m "core.audit.reexecs" "count" (fi audited);
        m "core.double_checks" "count"
          (fi
             (List.length
                (List.filter (fun (_, r) -> r.Client.double_checked) (inst.reports ()))));
        m "core.pledges_per_read" "pledges/read" (ratio (fi (List.length pledges)) reads_done);
        m "core.wire.pledge_us_per_call" "us" (per_call wire);
        m "core.wire.pledge_bytes" "bytes" (ratio (fi !bytes) (fi (List.length pledges)));
        m "crypto.sign.calls" "count" (fi sign_calls);
        m "crypto.verify.calls" "count" (fi verify_calls);
        m "crypto.sign.us_per_call" "us" (per_call sign);
        m "crypto.verify.us_per_call" "us" (per_call verify);
        m "broadcast.orders_delivered" "count" (fi (kind_count p "order_delivered"));
        m "monitor.slo.calls" "count" (fi p.slo.calls);
        m "monitor.slo.self_s" "s" p.slo.self_s;
        m "monitor.slo.minor_words" "words" p.slo.words;
        m "monitor.lineage.self_s" "s" p.lineage.self_s;
        m "monitor.lineage.minor_words" "words" p.lineage.words;
        m "monitor.alerts_raised" "count" (fi (kind_count p "alert_raised"));
        m "shard.run_s" "s" traced.run_s;
        m "shard.worker_events_max_over_mean" "ratio" max_over_mean;
        m "shard.merged_records" "count" (fi reference.merged_records);
        m "workload.arrivals_s" "s" inst.arrivals_s;
        m "gc.minor_collections" "count" (fi reference.minor_collections);
        m "gc.major_collections" "count" (fi reference.major_collections);
        m "gc.promoted_words_per_read" "words/read" (ratio reference.promoted_words ref_reads);
        m "trace.attributed_share" "ratio" (ratio attributed_s traced.run_s);
        m "trace.overhead_ratio" "ratio" (ratio traced.run_s reference.run_s);
        m "trace.unattributed_s" "s" (traced.run_s -. attributed_s);
      ])

(* -- command line -------------------------------------------------------- *)

(* Input sets drawn from one seed per untraced run: one cycle of them
   fits in 20 s, and pooling several draws keeps a seed's figures close
   to another seed's. *)
let default_inputs = function Grep_mix -> 6 | Monitored_point -> 3 | Sharded_rsa -> 4

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let domains = ref (min 2 (Domain.recommended_domain_count ())) and inputs = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME grep-mix | monitored-point | sharded-rsa");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S wall seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--domains", Arg.Set_int domains, "N worker domains for sharded-rsa (default min(2, nproc))");
      ("--inputs", Arg.Set_int inputs, "N input sets drawn from the seed (default per workload)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let inputs = if !inputs > 0 then !inputs else default_inputs w in
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds ~domains:!domains ~inputs
    else layers w ~seed:!seed ~domains:!domains
