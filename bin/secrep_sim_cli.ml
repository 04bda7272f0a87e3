(* Command-line simulator driver.

   Build any secure-replication deployment from flags, inject a
   malicious slave, run a read/write workload and print the outcome —
   the quickest way to poke at the protocol without writing code.

   Examples:
     dune exec bin/secrep_sim_cli.exe -- run
     dune exec bin/secrep_sim_cli.exe -- run --malicious 0 --lie-prob 1.0 \
        --lie-mode corrupt --double-check-p 0.0 --duration 600
     dune exec bin/secrep_sim_cli.exe -- run --masters 3 --clients 20 \
        --read-rate 50 --csv
     dune exec bin/secrep_sim_cli.exe -- fuzz --runs 100 --seed 1 *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Auditor = Secrep_core.Auditor
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Prng = Secrep_crypto.Prng
module Mix = Secrep_workload.Mix
module Driver = Secrep_workload.Driver

(* "-" means stdout, anything else is a file path. *)
let write_out path content =
  match path with
  | "-" -> print_string content
  | path ->
    let oc = open_out path in
    output_string oc content;
    close_out oc

let usage_error msg =
  prerr_endline msg;
  exit 2

(* -- the deployment every run drives ------------------------------------

   [run] and [chaos] build a [Secrep_shard.Deployment] for every
   [--shards K >= 1]: K content items over one host pool, each shard a
   stock single-content system (K = 1 is the paper's system).  Each
   shard is driven by its own [Driver], fed by cross-shard arrivals. *)

module Deployment = Secrep_shard.Deployment
module Cross = Secrep_workload.Cross

(* The JSONL trace and the per-shard health lines work at every K.
   These outputs render one system's rings or one lineage, so they
   exist at K = 1 only. *)
let check_outputs ~shards ~trace_format ~metrics_out ~lineage_out =
  if shards < 1 then usage_error "--shards must be at least 1";
  if trace_format <> "jsonl" && trace_format <> "chrome" then
    usage_error (Printf.sprintf "unknown trace format %S (expected jsonl or chrome)" trace_format);
  if shards > 1 then
    List.iter
      (fun (given, flag) ->
        if given then usage_error (Printf.sprintf "%s needs --shards 1" flag))
      [
        (trace_format = "chrome", "--trace-format chrome");
        (metrics_out <> None, "--metrics-out");
        (lineage_out <> None, "--lineage-out");
      ]

(* Cross-shard workload: Poisson arrivals over a Zipf of contents whose
   hot shard rotates every quarter of the run (at K = 1 every arrival
   lands on shard 0).  Each arrival is one [Driver.issue_read] on its
   shard; writes come from client 0.  All draws happen here, up front,
   so shard callbacks share no RNG state (the parallel scheduler's
   determinism contract). *)
let drive d ~seed ~read_rate ~write_rate ~duration =
  let k = Deployment.n_shards d in
  let g = Prng.create ~seed:(Int64.of_int (seed + 1)) in
  let mixes =
    Array.init k (fun i -> Mix.create ~rng:(Prng.split g) ~keys:(Deployment.keys d i) ())
  in
  let drivers =
    Array.init k (fun i ->
        Driver.create (Deployment.system d i) ~mix:mixes.(i) ~rng:(Prng.split g) ())
  in
  let cross =
    Cross.create ~rng:(Prng.split g) ~n_shards:k
      ~rotate_period:(Float.max 1.0 (duration /. 4.0))
      ()
  in
  List.iter
    (fun (at, shard) ->
      Deployment.schedule d ~shard ~time:at (fun () -> Driver.issue_read drivers.(shard)))
    (Cross.arrivals cross ~rate:read_rate ~duration);
  if write_rate > 0.0 then begin
    let wcross = Cross.create ~rng:(Prng.split g) ~n_shards:k () in
    List.iter
      (fun (at, shard) ->
        Deployment.schedule d ~shard ~time:at (fun () ->
            Deployment.write d ~shard ~client:0 (Mix.next_write mixes.(shard))
              ~on_done:ignore))
      (Cross.arrivals wcross ~rate:write_rate ~duration)
  end;
  drivers

(* [--trace-out]: the merged live stream as shard-tagged JSONL — every
   event from here on; set-up events emitted inside [Deployment.create]
   (bootstrap applies and audit advances, placements) came before the
   subscription and are not in it — or, at K = 1, the chrome rendering
   of the shard's trace and span rings (the newest 4096 of each).
   Returns the writer to call after the run. *)
let record_trace d ~trace_out ~trace_format =
  match trace_out with
  | None -> ignore
  | Some path when trace_format = "chrome" ->
    fun () ->
      let sys = Deployment.system d 0 in
      write_out path (Export.chrome_of ~spans:(System.spans sys) ~trace:(System.trace sys) ())
  | Some path ->
    let lines = ref [] in
    Deployment.on_event d (fun ~shard r -> lines := Deployment.tagged_line ~shard r :: !lines);
    fun () -> write_out path (String.concat "\n" (List.rev !lines) ^ "\n")

let shard_list l = String.concat "; " (List.map string_of_int l)

(* -- online monitoring (lineage + SLO) ---------------------------------- *)

module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage
module Health = Secrep_monitor.Health

type monitoring = { m_slo : Slo.t; m_lineage : Lineage.t }

(* One monitor per shard.  Both monitors subscribe through one [on_emit]
   callback so lineage sees each event before the SLO engine can emit
   alerts about it.  The SLO engine is finalized as the shard's last
   event at [until], so end-of-run alerts (e.g. a never-accused liar)
   reach the trace dump and the stream capture too. *)
let start_monitoring d ~config ~until =
  Array.init (Deployment.n_shards d) (fun i ->
      let sys = Deployment.system d i in
      let slo = Slo.create ~trace:(System.trace sys) ~config:(Slo.config config) () in
      let lineage = Lineage.create () in
      Trace.on_emit (System.trace sys) (fun r ->
          Lineage.observe lineage r;
          Slo.observe slo r);
      Deployment.schedule d ~shard:i ~time:until (fun () -> Slo.finalize slo ~now:until);
      { m_slo = slo; m_lineage = lineage })

(* One health report per shard; [--slo-out] gets one
   [{"shard":i,"health":...}] line each. *)
let finish_monitoring ms ~slo_out ~lineage_out ~print_report =
  let lines =
    Array.mapi
      (fun i m ->
        let health = Health.build ~slo:m.m_slo ~lineage:m.m_lineage () in
        if print_report then Format.printf "@.-- shard %d --@.%a" i Health.pp health;
        Export.Json.to_string
          (Export.Json.Obj [ ("shard", Export.Json.Int i); ("health", Health.to_json health) ]))
      ms
  in
  Option.iter
    (fun path -> write_out path (String.concat "\n" (Array.to_list lines) ^ "\n"))
    slo_out;
  Option.iter (fun path -> write_out path (Lineage.jsonl ms.(0).m_lineage)) lineage_out

let monitoring_args =
  let open Cmdliner in
  let slo =
    Arg.(
      value
      & flag
      & info [ "slo" ]
          ~doc:
            "Run the online SLO monitor over the live event stream: alerts are raised as \
             typed trace events and an end-of-run health report is printed per shard.")
  in
  let slo_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable JSON health summary (alerts, lineage, per-node \
             rows) to $(docv) ('-' = stdout), one {\"shard\":i,\"health\":...} line per \
             shard.  Implies the monitor is on.")
  in
  let lineage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "lineage-out" ] ~docv:"FILE"
          ~doc:
            "Write per-request causal lineage records (one JSON object per read) to \
             $(docv) ('-' = stdout).  Implies the monitor is on.  Needs --shards 1.")
  in
  (slo, slo_out, lineage_out)

(* -- run ---------------------------------------------------------------- *)

let run_simulation ~shards ~domains ~masters ~slaves_per_master ~clients ~items ~duration
    ~read_rate ~write_rate ~config ~malicious ~lie_prob ~lie_mode ~lie_from ~seed ~csv
    ~trace_out ~trace_format ~metrics_out ~slo ~slo_out ~lineage_out =
  (* Reject bad flags before spending time on the simulation. *)
  check_outputs ~shards ~trace_format ~metrics_out ~lineage_out;
  let attack =
    Option.map
      (fun slave ->
        match Fault.mode_of_string lie_mode with
        | Ok mode -> (slave, mode)
        | Error msg -> usage_error msg)
      malicious
  in
  let d =
    Deployment.create ~n_shards:shards ~n_masters:masters
      ~replication_factor:(masters * slaves_per_master) ~n_clients:clients ~config
      ~seed:(Int64.of_int seed) ~items_per_shard:items ~domains ()
  in
  (* The attack targets shard [slave mod K], with [slave] as the local
     replica index. *)
  Option.iter
    (fun (slave, mode) ->
      if slave < 0 || slave >= Deployment.replication d then
        usage_error
          (Printf.sprintf "slave %d out of range (0..%d)" slave (Deployment.replication d - 1));
      System.set_slave_behavior
        (Deployment.system d (slave mod shards))
        ~slave
        (Fault.Malicious { probability = lie_prob; mode; from_time = lie_from }))
    attack;
  let max_latency = config.Config.max_latency in
  let horizon = duration +. (4.0 *. max_latency) +. 60.0 in
  let monitors =
    if slo || slo_out <> None || lineage_out <> None then
      Some (start_monitoring d ~config ~until:horizon)
    else None
  in
  let write_trace = record_trace d ~trace_out ~trace_format in
  let drivers = drive d ~seed ~read_rate ~write_rate ~duration in
  Deployment.run_until d horizon;
  let shard_rows f =
    Array.iteri (fun i driver -> f i (Deployment.system d i) (Driver.summary driver)) drivers
  in
  if csv then begin
    Printf.printf
      "shard,reads_completed,reads_accepted,reads_gave_up,served_by_master,accepted_wrong,double_checks,mean_latency_ms,p99_latency_ms,audited,audit_backlog,caught,excluded\n";
    shard_rows (fun i sys s ->
        let auditor = System.auditor sys in
        Printf.printf "%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%s\n" i s.Driver.reads_completed
          s.Driver.reads_accepted s.Driver.reads_gave_up s.Driver.served_by_master
          s.Driver.accepted_wrong s.Driver.double_checks
          (1000.0 *. s.Driver.mean_latency)
          (1000.0 *. s.Driver.p99_latency)
          (Auditor.audited auditor) (Auditor.backlog auditor) (Auditor.caught auditor)
          (String.concat ";"
             (List.map string_of_int (Corrective.excluded (System.corrective sys)))))
  end
  else begin
    let pledge_batch = config.Config.pledge_batch_size
    and read_nonces = config.Config.read_nonces
    and audit_adaptive = config.Config.audit_adaptive in
    Printf.printf "secure replication over untrusted hosts — simulation summary\n";
    Printf.printf
      "  topology: %d shard(s) over a pool of %d host(s); per shard %d masters, %d \
       slaves, %d clients, %d documents\n"
      shards (Deployment.pool_size d) masters (Deployment.replication d) clients items;
    Printf.printf "  protocol: max_latency=%.2gs keepalive=%.2gs p=%.3g audit=%b\n"
      max_latency config.Config.keepalive_period config.Config.double_check_probability
      config.Config.audit_enabled;
    if pledge_batch > 1 then
      Printf.printf "  batching: pledge_batch=%d window=%.2gs\n" pledge_batch
        config.Config.pledge_batch_window;
    if read_nonces || audit_adaptive then
      Printf.printf "  hardening: read_nonces=%b audit_adaptive=%b\n" read_nonces
        audit_adaptive;
    (match malicious with
    | Some slave ->
      Printf.printf "  attack: slave %d of shard %d, mode %s, prob %.2g, from t=%.2gs\n" slave
        (slave mod shards) lie_mode lie_prob lie_from
    | None -> Printf.printf "  attack: none\n");
    shard_rows (fun i sys s ->
        let stats = System.stats sys in
        let auditor = System.auditor sys in
        Printf.printf "\n  shard %d on hosts [%s]\n" i
          (shard_list (Array.to_list (Deployment.hosts_of_shard d i)));
        Printf.printf "    reads completed  %d (accepted %d, by-master %d, gave up %d)\n"
          s.Driver.reads_completed s.Driver.reads_accepted s.Driver.served_by_master
          s.Driver.reads_gave_up;
        Printf.printf "    read latency     mean %.1f ms, p99 %.1f ms\n"
          (1000.0 *. s.Driver.mean_latency)
          (1000.0 *. s.Driver.p99_latency);
        Printf.printf "    writes           %d committed\n"
          (Stats.get stats "system.writes_committed_acked");
        Printf.printf "    double-checks    %d (throttled %d)\n" s.Driver.double_checks
          (Stats.get stats "master.double_checks_throttled");
        Printf.printf "    wrong accepts    %d\n" s.Driver.accepted_wrong;
        Printf.printf "    audit            %d audited, backlog %d, caught %d\n"
          (Auditor.audited auditor) (Auditor.backlog auditor) (Auditor.caught auditor);
        if read_nonces then
          Printf.printf "    replay defense   %d nonce rejection(s)\n"
            (Stats.get stats "client.nonce_rejections");
        if audit_adaptive then
          Printf.printf "    quarantines      %d\n" (Stats.get stats "auditor.quarantines");
        Printf.printf "    exclusions       [%s]\n"
          (String.concat "; "
             (List.map
                (fun e ->
                  Printf.sprintf "slave %d at t=%.1fs (%s)" e.Corrective.slave_id
                    e.Corrective.time
                    (match e.Corrective.discovery with
                    | Corrective.Immediate -> "immediate"
                    | Corrective.Delayed -> "delayed"))
                (Corrective.events (System.corrective sys)))))
  end;
  Option.iter (finish_monitoring ~slo_out ~lineage_out ~print_report:(not csv)) monitors;
  write_trace ();
  Option.iter
    (fun path ->
      write_out path (Export.prometheus_of_stats (System.stats (Deployment.system d 0))))
    metrics_out

open Cmdliner

let shards_arg ~doc = Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let domains_arg =
  Arg.(
    value
    & opt int 0
    & info [ "domains" ]
        ~doc:
          "Worker domains for the deployment.  0 or 1 runs the shards sequentially in \
           lockstep; >1 advances them on a parallel domain pool (with more than one \
           shard).  Both modes produce bit-identical event streams.")

let run_cmd =
  let masters = Arg.(value & opt int 2 & info [ "masters" ] ~doc:"Number of master servers.") in
  let slaves =
    Arg.(value & opt int 3 & info [ "slaves-per-master" ] ~doc:"Slaves per master.")
  in
  let shards =
    shards_arg
      ~doc:
        "Content items in the deployment, each with its own masters, replicas and auditor \
         over a shared host pool; a cross-shard Zipf workload picks the item per read.  1 \
         is the paper's single-content system."
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Number of clients.") in
  let items = Arg.(value & opt int 300 & info [ "items" ] ~doc:"Documents in the content.") in
  let duration =
    Arg.(value & opt float 300.0 & info [ "duration" ] ~doc:"Workload duration (sim seconds).")
  in
  let read_rate = Arg.(value & opt float 20.0 & info [ "read-rate" ] ~doc:"Reads per second.") in
  let write_rate =
    Arg.(value & opt float 0.05 & info [ "write-rate" ] ~doc:"Writes per second (0 = none).")
  in
  let p =
    Arg.(
      value
      & opt float 0.05
      & info [ "double-check-p" ] ~doc:"Probability a read is double-checked (Section 3.3).")
  in
  let max_latency =
    Arg.(value & opt float 5.0 & info [ "max-latency" ] ~doc:"Freshness bound (Section 3).")
  in
  let keepalive =
    Arg.(value & opt float 1.0 & info [ "keepalive" ] ~doc:"Keep-alive period (Section 3.1).")
  in
  let audit =
    Arg.(value & opt bool true & info [ "audit" ] ~doc:"Enable the background auditor.")
  in
  let pledge_batch =
    Arg.(
      value
      & opt int 1
      & info [ "pledge-batch-size" ]
          ~doc:
            "Pledges a slave signs per Merkle batch (1 = classic per-pledge signatures).")
  in
  let pledge_batch_window =
    Arg.(
      value
      & opt float 0.05
      & info [ "pledge-batch-window" ]
          ~doc:"Max seconds a slave holds a partial pledge batch before flushing it.")
  in
  let malicious =
    Arg.(
      value
      & opt (some int) None
      & info [ "malicious" ]
          ~doc:"Make this slave id malicious (replica index of shard id mod --shards).")
  in
  let lie_prob =
    Arg.(value & opt float 1.0 & info [ "lie-prob" ] ~doc:"Probability the slave lies per read.")
  in
  let lie_mode =
    Arg.(
      value
      & opt string "corrupt"
      & info [ "lie-mode" ]
          ~doc:
            "Attack: corrupt | stale | bad-signature | omit | collude:TAG | replay | \
             equivocate:CLIENT,... | adaptive:THRESHOLD | flaky-omit:BURST.  The names \
             traces print (corrupt-result, stale-state, omit-result, replay-pledge) work \
             too.")
  in
  let lie_from =
    Arg.(value & opt float 0.0 & info [ "lie-from" ] ~doc:"Attack start time (sim seconds).")
  in
  let read_nonces =
    Arg.(
      value
      & flag
      & info [ "read-nonces" ]
          ~doc:
            "Bind each pledge to its read's request id so replayed pledges are rejected \
             (replay defense).  Off by default for wire compatibility.")
  in
  let audit_adaptive =
    Arg.(
      value
      & flag
      & info [ "audit-adaptive" ]
          ~doc:
            "Suspicion-weighted audit sampling: slaves that accumulate suspicion (late \
             pledges, nonce rejections, double-check mismatches) are audited more and \
             can be quarantined on probation.  Exclusion still requires cryptographic \
             proof.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Machine-readable output, one line per shard.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Dump the event trace to $(docv) after the run ('-' = stdout).")
  in
  let trace_format =
    Arg.(
      value
      & opt string "jsonl"
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace dump format: $(b,jsonl) (the shard-tagged event stream after set-up, \
             one event per line, replayable with the $(b,trace) subcommand) or \
             $(b,chrome) (trace_event JSON of the newest 4096 trace records and spans, \
             loadable in Perfetto / chrome://tracing; needs --shards 1).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write counters, gauges and per-phase latency quantiles in Prometheus text \
             format to $(docv) ('-' = stdout).  Needs --shards 1.")
  in
  let slo_flag, slo_out, lineage_out = monitoring_args in
  let term =
    Term.(
      const
        (fun masters slaves_per_master shards domains clients items duration read_rate
             write_rate double_check_p max_latency keepalive audit pledge_batch
             pledge_batch_window malicious lie_prob lie_mode lie_from read_nonces
             audit_adaptive seed csv trace_out trace_format metrics_out slo slo_out
             lineage_out ->
          let config =
            Config.validate_exn
              {
                Config.default with
                Config.max_latency;
                keepalive_period = keepalive;
                double_check_probability = double_check_p;
                audit_enabled = audit;
                pledge_batch_size = pledge_batch;
                pledge_batch_window;
                read_nonces;
                audit_adaptive;
              }
          in
          run_simulation ~shards ~domains ~masters ~slaves_per_master ~clients ~items
            ~duration ~read_rate ~write_rate ~config ~malicious ~lie_prob ~lie_mode ~lie_from
            ~seed ~csv ~trace_out ~trace_format ~metrics_out ~slo ~slo_out ~lineage_out)
      $ masters $ slaves $ shards $ domains_arg $ clients $ items $ duration $ read_rate
      $ write_rate $ p $ max_latency $ keepalive $ audit $ pledge_batch
      $ pledge_batch_window $ malicious $ lie_prob $ lie_mode $ lie_from $ read_nonces
      $ audit_adaptive $ seed $ csv $ trace_out $ trace_format $ metrics_out $ slo_flag
      $ slo_out $ lineage_out)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate a deployment of the secure-replication protocol under a workload.")
    term

(* -- fuzzing ------------------------------------------------------------ *)

module Fuzz = Secrep_check.Fuzz
module Invariant = Secrep_check.Invariant

let run_fuzz ~seed ~runs ~max_shrink_steps ~invariants ~shards ~replication_factor
    ~counterexample_out =
  match Invariant.named invariants with
  | Error msg -> usage_error msg
  | Ok checkers ->
    let outcome =
      Fuzz.run ~runs ~max_shrink_steps
        ?invariants:(if invariants = [] then None else Some checkers)
        ?shards ?slaves_per_master:replication_factor ~seed:(Int64.of_int seed) ()
    in
    Format.printf "%a@." Fuzz.pp_outcome outcome;
    (match outcome with
    | Fuzz.Passed _ -> ()
    | Fuzz.Failed { failure = f; replay } ->
      (match counterexample_out with
      | None -> ()
      | Some path ->
        write_out path
          (Format.asprintf "%a@.@.violation: %s@.replay: %s@." Secrep_check.Scenario.pp
             f.Secrep_check.Prop.shrunk f.Secrep_check.Prop.shrunk_reason replay));
      exit 1)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed; run $(i,i) uses seed + i.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of random scenarios.") in
  let max_shrink_steps =
    Arg.(
      value
      & opt int 200
      & info [ "max-shrink-steps" ]
          ~doc:"Cap on accepted shrinking steps when minimizing a counterexample.")
  in
  let invariants =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Only check invariant $(docv).  Repeatable; default all.  Known: %s."
               (String.concat ", " (List.map (fun c -> c.Invariant.name) Invariant.all))))
  in
  let counterexample_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:"On failure, also write the shrunk counterexample to $(docv) ('-' = stdout).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ]
          ~doc:
            "Pin every scenario's shard count to $(docv) (1-4) instead of drawing it.  \
             Every invariant is checked per shard."
          ~docv:"K")
  in
  let replication_factor =
    Arg.(
      value
      & opt (some int) None
      & info [ "replication-factor" ] ~docv:"R"
          ~doc:"Pin every scenario's replicas-per-master to $(docv) instead of drawing it.")
  in
  let term =
    Term.(
      const (fun seed runs max_shrink_steps invariants shards replication_factor
                counterexample_out ->
          run_fuzz ~seed ~runs ~max_shrink_steps ~invariants ~shards ~replication_factor
            ~counterexample_out)
      $ seed $ runs $ max_shrink_steps $ invariants $ shards $ replication_factor
      $ counterexample_out)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run random scenarios against the simulator, check the paper's invariants on the \
          event stream, and shrink any violation to a minimal counterexample with a replay \
          command.")
    term

(* -- chaos --------------------------------------------------------------- *)

module Schedule = Secrep_chaos.Schedule
module Injector = Secrep_chaos.Injector
module Scenario = Secrep_check.Scenario
module Harness = Secrep_check.Harness

let chaos_default_invariants =
  [ "availability"; "recovery-convergence"; "no-false-accusation"; "staleness";
    "write-spacing"; "alert-coverage" ]

let read_schedule_file path =
  let ic = try open_in path with Sys_error msg -> usage_error msg in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Schedule.parse text with
  | Ok schedule -> schedule
  | Error msg -> usage_error (Printf.sprintf "%s: %s" path msg)

(* A per-slave schedule is armed on every shard's own system, with
   local slave/master/client ids.  Returns the timeline it describes. *)
let inject_schedule d schedule =
  for i = 0 to Deployment.n_shards d - 1 do
    try Injector.apply (Deployment.system d i) schedule
    with Invalid_argument msg -> usage_error msg
  done;
  List.map (fun e -> (e.Schedule.time, Schedule.describe e.Schedule.action)) schedule

(* Seeded-random host windows over the shared pool: a crashed or cut
   host takes down every co-located replica at once — the cross-shard
   blast radius a per-slave schedule cannot express.  Every window
   self-heals; a crashed host's replicas are re-homed after the
   provisioning delay. *)
let inject_host_windows d ~seed ~intensity ~duration =
  let crng = Prng.create ~seed:(Int64.of_int (seed + 2)) in
  let n_windows = max 1 (int_of_float (intensity *. duration /. 30.0)) in
  let windows =
    List.init n_windows (fun _ ->
        let host = Prng.int crng (Deployment.pool_size d) in
        let crash = Prng.bool crng in
        let at = 5.0 +. (Prng.float crng *. Float.max 1.0 (duration -. 25.0)) in
        let outage = 2.0 +. (Prng.float crng *. 13.0) in
        (host, crash, at, at +. outage))
  in
  List.concat_map
    (fun (host, crash, at, until) ->
      if crash then begin
        Deployment.crash_host d ~at host;
        Deployment.recover_host d ~at:until host
      end
      else begin
        Deployment.cut_host d ~at host;
        Deployment.heal_host d ~at:until host
      end;
      let verbs = if crash then ("crash", "recover") else ("cut", "heal") in
      [
        (at, Printf.sprintf "%s host %d" (fst verbs) host);
        (until, Printf.sprintf "%s host %d" (snd verbs) host);
      ])
    windows

let run_chaos ~shards ~domains ~masters ~slaves_per_master ~clients ~items ~duration
    ~read_rate ~write_rate ~max_latency ~keepalive ~schedule_file ~intensity ~seed
    ~invariants ~trace_out ~trace_format ~counterexample_out ~slo ~slo_out ~lineage_out =
  check_outputs ~shards ~trace_format ~metrics_out:None ~lineage_out;
  let checkers =
    match
      Invariant.named (if invariants = [] then chaos_default_invariants else invariants)
    with
    | Ok checkers -> checkers
    | Error msg -> usage_error msg
  in
  let config =
    Config.validate_exn
      {
        Config.default with
        Config.max_latency;
        keepalive_period = keepalive;
        double_check_probability = 0.05;
      }
  in
  let d =
    Deployment.create ~n_shards:shards ~n_masters:masters
      ~replication_factor:(masters * slaves_per_master) ~n_clients:clients ~config
      ~seed:(Int64.of_int seed) ~items_per_shard:items ~domains ()
  in
  (* Capture each shard's live stream for the checkers, exactly like the
     fuzz harness: the trace ring may overwrite old records on long
     runs, subscribers see everything. *)
  let judge = Harness.capture d in
  (* The only K-dependent step: without a script, K = 1 draws a
     per-slave schedule and K > 1 draws host windows. *)
  let faults =
    match schedule_file with
    | Some path -> inject_schedule d (read_schedule_file path)
    | None when shards = 1 ->
      inject_schedule d
        (Schedule.random
           ~rng:(Prng.create ~seed:(Int64.of_int (seed + 2)))
           ~duration ~n_slaves:(Deployment.replication d) ~n_masters:masters
           ~n_clients:clients ~intensity ())
    | None -> inject_host_windows d ~seed ~intensity ~duration
  in
  let faults = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) faults in
  (* Settle: every in-flight read must be able to exhaust its retry
     ladder and degraded fallback, and the last recovery needs
     max_latency to converge, before the invariants judge the trace. *)
  let last_fault = List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 faults in
  let horizon =
    Float.max duration last_fault +. Config.read_give_up_bound config +. (6.0 *. max_latency)
    +. 60.0
  in
  let monitors =
    if slo || slo_out <> None || lineage_out <> None then
      Some (start_monitoring d ~config ~until:horizon)
    else None
  in
  let write_trace = record_trace d ~trace_out ~trace_format in
  let drivers = drive d ~seed ~read_rate ~write_rate ~duration in
  Deployment.run_until d horizon;
  Printf.printf "chaos run: seed %d, %d shard(s) over %d host(s), %d fault action(s) over %.1fs\n"
    seed shards (Deployment.pool_size d) (List.length faults) duration;
  List.iter (fun (t, what) -> Printf.printf "    at %g %s\n" t what) faults;
  Array.iteri
    (fun i driver ->
      let sys = Deployment.system d i in
      let stat = Stats.get (System.stats sys) in
      let s = Driver.summary driver in
      Printf.printf "  shard %d: reads %d completed (accepted %d, by-master %d, gave up %d)\n"
        i s.Driver.reads_completed s.Driver.reads_accepted s.Driver.served_by_master
        s.Driver.reads_gave_up;
      Printf.printf "    applied %d scheduled action(s), skipped %d no-op(s)\n"
        (stat "chaos.actions") (stat "chaos.skipped_actions");
      Printf.printf
        "    resilience: %d timeout(s), %d degraded master read(s), breakers opened %d / \
         closed %d\n"
        (stat "client.read_timeouts") (stat "client.degraded_reads")
        (stat "client.breaker_opened") (stat "client.breaker_closed");
      Printf.printf "    churn: %d crash(es), %d recover(ies); auditor overload drops %d\n"
        (stat "system.slave_crashes") (stat "system.slave_recoveries")
        (stat "auditor.overload_drops");
      Printf.printf "    exclusions: [%s]\n"
        (shard_list (Corrective.excluded (System.corrective sys))))
    drivers;
  Option.iter (finish_monitoring ~slo_out ~lineage_out ~print_report:true) monitors;
  write_trace ();
  (* Judge every shard against its own stream.  The run injected no
     adversarial faults and no scenario ops, so [accepted] stays empty
     and the honest-run invariants apply in full. *)
  let scenario =
    Scenario.of_config ~sys_seed:seed ~n_masters:masters
      ~slaves_per_master:(Deployment.replication d / masters)
      ~n_clients:clients ~n_items:items config
  in
  let violations =
    List.filter_map
      (fun i ->
        match Invariant.check_all checkers (judge ~shard:i scenario []) with
        | Ok () -> None
        | Error msg -> Some (Printf.sprintf "[shard %d] %s" i msg))
      (List.init shards Fun.id)
  in
  match violations with
  | [] ->
    Printf.printf "invariants: %s — all held on every shard\n"
      (String.concat ", " (List.map (fun c -> c.Invariant.name) checkers))
  | _ ->
    List.iter (Printf.printf "invariant VIOLATED: %s\n") violations;
    Option.iter
      (fun path ->
        write_out path
          (Printf.sprintf
             "chaos counterexample\nseed: %d\nshards: %d\ntopology: %d masters x %d \
              slaves, %d clients, %d items\nduration: %g\nmax_latency: %g keepalive: \
              %g\nviolations:\n%s\n\nschedule:\n%s"
             seed shards masters
             (Deployment.replication d / masters)
             clients items duration max_latency keepalive
             (String.concat "\n" violations)
             (String.concat ""
                (List.map (fun (t, what) -> Printf.sprintf "at %g %s\n" t what) faults))))
      counterexample_out;
    exit 1

let chaos_cmd =
  let masters = Arg.(value & opt int 2 & info [ "masters" ] ~doc:"Number of master servers.") in
  let slaves =
    Arg.(value & opt int 3 & info [ "slaves-per-master" ] ~doc:"Slaves per master.")
  in
  let shards =
    shards_arg
      ~doc:
        "Content items in the deployment.  Invariants are checked per shard.  Without \
         --schedule, 1 draws a random per-slave schedule and >1 draws host-level chaos \
         over the shared pool: each window crashes or cuts a pool host, hitting every \
         co-located replica."
  in
  let clients = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Number of clients.") in
  let items = Arg.(value & opt int 50 & info [ "items" ] ~doc:"Documents in the content.") in
  let duration =
    Arg.(
      value
      & opt float 120.0
      & info [ "duration" ] ~doc:"Chaos + workload window (sim seconds).")
  in
  let read_rate = Arg.(value & opt float 5.0 & info [ "read-rate" ] ~doc:"Reads per second.") in
  let write_rate =
    Arg.(value & opt float 0.05 & info [ "write-rate" ] ~doc:"Writes per second (0 = none).")
  in
  let max_latency =
    Arg.(value & opt float 5.0 & info [ "max-latency" ] ~doc:"Freshness bound (Section 3).")
  in
  let keepalive =
    Arg.(value & opt float 1.0 & info [ "keepalive" ] ~doc:"Keep-alive period (Section 3.1).")
  in
  let schedule_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Scripted fault timeline ('at TIME ACTION' per line, see docs/ROBUSTNESS.md), \
             applied to every shard with shard-local ids.  Omit to draw a seeded-random \
             schedule.")
  in
  let intensity =
    Arg.(
      value
      & opt float 1.0
      & info [ "intensity" ]
          ~doc:"Scale the density of a random schedule (ignored with --schedule).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let invariants =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Only check invariant $(docv).  Repeatable; default: %s.  Known: %s."
               (String.concat ", " chaos_default_invariants)
               (String.concat ", " (List.map (fun c -> c.Invariant.name) Invariant.all))))
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Dump the event trace to $(docv) after the run ('-' = stdout).")
  in
  let trace_format =
    Arg.(
      value
      & opt string "jsonl"
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:"Trace dump format: $(b,jsonl) or $(b,chrome) (needs --shards 1).")
  in
  let counterexample_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:
            "On violation, write seed, schedule and violation to $(docv) ('-' = stdout) so \
             the run can be replayed.")
  in
  let slo_flag, slo_out, lineage_out = monitoring_args in
  let term =
    Term.(
      const
        (fun masters slaves_per_master shards domains clients items duration read_rate
             write_rate max_latency keepalive schedule_file intensity seed invariants
             trace_out trace_format counterexample_out slo slo_out lineage_out ->
          run_chaos ~shards ~domains ~masters ~slaves_per_master ~clients ~items ~duration
            ~read_rate ~write_rate ~max_latency ~keepalive ~schedule_file ~intensity ~seed
            ~invariants ~trace_out ~trace_format ~counterexample_out ~slo ~slo_out
            ~lineage_out)
      $ masters $ slaves $ shards $ domains_arg $ clients $ items $ duration $ read_rate
      $ write_rate $ max_latency $ keepalive $ schedule_file $ intensity $ seed
      $ invariants $ trace_out $ trace_format $ counterexample_out $ slo_flag $ slo_out
      $ lineage_out)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a workload under a fault timeline — partitions, crash/recover churn, loss \
          bursts, latency spikes — and check the resilience invariants on each shard's \
          event stream.  Scripted (--schedule) or seeded-random; both replay exactly from \
          the same inputs.")
    term

(* -- attack campaign ----------------------------------------------------

   [campaign] runs one seeded one-shard deployment per lie mode — the
   legacy blunt liars plus the strategic adversaries — with the
   hardening knobs on, and asserts each attack is neutralized
   (convicted, quarantined, rejected or suppressed) with zero false
   accusations anywhere.  CI runs this as the adversary smoke job. *)

let campaign_default_modes =
  [ "corrupt"; "stale"; "bad-signature"; "omit"; "collude:ring"; "replay";
    "equivocate:0"; "adaptive:1.5"; "flaky-omit:3" ]

type campaign_row = {
  c_mode : string;
  c_liar : int;
  c_launched : int;
  c_suppressed : int;
  c_accused_at : float option;
  c_reads_before : int option;
  c_detect_latency : float option;
  c_quarantines : int;
  c_nonce_rejects : int;
  c_wrong : int;
  c_false : int list;  (** accused slaves other than the malicious one *)
  c_verdict : (unit, string) result;
}

let campaign_one ~mode ~masters ~slaves_per_master ~clients ~items ~duration ~read_rate
    ~write_rate ~lie_prob ~read_nonces ~audit_adaptive ~seed =
  match Fault.mode_of_string mode with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2
  | Ok fault_mode ->
    let max_latency = 5.0 in
    let config =
      Config.validate_exn
        {
          Config.default with
          Config.max_latency;
          keepalive_period = 1.0;
          double_check_probability = 0.05;
          audit_enabled = true;
          read_nonces;
          audit_adaptive;
        }
    in
    let d =
      Deployment.create ~n_shards:1 ~n_masters:masters
        ~replication_factor:(masters * slaves_per_master) ~n_clients:clients ~config
        ~seed:(Int64.of_int seed) ~items_per_shard:items ()
    in
    let system = Deployment.system d 0 in
    (* The liar is the replica serving the most clients at setup (lowest
       id on ties): replica 0 may serve no reads at all on this path. *)
    let clients_of = Array.make (System.n_slaves system) 0 in
    for c = 0 to clients - 1 do
      let s = System.slave_of_client system c in
      clients_of.(s) <- clients_of.(s) + 1
    done;
    let liar = ref 0 in
    Array.iteri (fun s n -> if n > clients_of.(!liar) then liar := s) clients_of;
    let liar = !liar in
    (* Capture the live stream: the trace ring may wrap on long runs,
       subscribers see everything. *)
    let lineage = Lineage.create () in
    let events_rev = ref [] in
    Trace.on_emit (System.trace system) (fun r ->
        Lineage.observe lineage r;
        events_rev := r :: !events_rev);
    System.set_slave_behavior system ~slave:liar
      (Fault.Malicious { probability = lie_prob; mode = fault_mode; from_time = 0.0 });
    let drivers = drive d ~seed ~read_rate ~write_rate ~duration in
    Deployment.run_until d (duration +. (4.0 *. max_latency) +. 60.0);
    let stats = System.stats system in
    let s = Driver.summary drivers.(0) in
    let launched = ref 0 and suppressed = ref 0 and quarantines = ref 0 in
    let accusations = ref [] in
    List.iter
      (fun r ->
        match r.Trace.event with
        | Event.Attack_launched { slave; _ } when slave = liar -> incr launched
        | Event.Attack_suppressed { slave; _ } when slave = liar -> incr suppressed
        | Event.Slave_quarantined { slave; _ } when slave = liar -> incr quarantines
        | event ->
          Option.iter
            (fun slave -> accusations := (r.Trace.time, slave) :: !accusations)
            (Event.accused event))
      (List.rev !events_rev);
    let accused_at =
      List.fold_left
        (fun acc (t, sl) ->
          if sl <> liar then acc
          else Some (match acc with None -> t | Some a -> Float.min a t))
        None !accusations
    in
    let false_acc =
      List.sort_uniq compare
        (List.filter_map (fun (_, sl) -> if sl <> liar then Some sl else None) !accusations)
    in
    Lineage.finalize lineage;
    let row0 =
      List.find_opt
        (fun (r : Lineage.slave_row) -> r.Lineage.slave = liar)
        (Lineage.slave_rows lineage)
    in
    let get = Stats.get stats in
    let verdict =
      match fault_mode with
      | Fault.Corrupt_result | Fault.Equivocate _ | Fault.Collude _ ->
        if accused_at <> None then Ok ()
        else Error "expected an accusation (conviction / exclusion / DC mismatch)"
      | Fault.Stale_state ->
        if get "client.stale_rejections" > 0 || accused_at <> None then Ok ()
        else Error "expected the freshness check to reject stale pledges"
      | Fault.Bad_signature ->
        if get "client.pledge_rejected" > 0 then Ok ()
        else Error "expected pledge signature rejections"
      | Fault.Omit_result | Fault.Flaky_omit _ ->
        if get "client.read_timeouts" > 0 then Ok ()
        else Error "expected omission to surface as read timeouts"
      | Fault.Replay_pledge ->
        if not read_nonces then Ok () (* defense off: nothing to assert *)
        else if get "client.nonce_rejections" = 0 then
          Error "expected the nonce check to reject replayed pledges"
        else if audit_adaptive && !quarantines = 0 then
          Error "expected the adaptive auditor to quarantine the replaying slave"
        else Ok ()
      | Fault.Adaptive _ ->
        if !launched = 0 || accused_at <> None || !quarantines > 0 then Ok ()
        else Error "expected the adaptive liar to be suppressed, quarantined or convicted"
    in
    {
      c_mode = mode;
      c_liar = liar;
      c_launched = !launched;
      c_suppressed = !suppressed;
      c_accused_at = accused_at;
      c_reads_before = Option.bind row0 (fun r -> r.Lineage.reads_before_detection);
      c_detect_latency = Option.bind row0 (fun r -> r.Lineage.detection_latency);
      c_quarantines = !quarantines;
      c_nonce_rejects = get "client.nonce_rejections";
      c_wrong = s.Driver.accepted_wrong;
      c_false = false_acc;
      c_verdict = verdict;
    }

let json_of_campaign_row row =
  let open Export.Json in
  let opt_num = function Some x -> Num x | None -> Null in
  let opt_int = function Some x -> Int x | None -> Null in
  Obj
    [
      ("mode", Str row.c_mode);
      ("liar", Int row.c_liar);
      ("launched", Int row.c_launched);
      ("suppressed", Int row.c_suppressed);
      ("accused_at", opt_num row.c_accused_at);
      ("reads_before_detection", opt_int row.c_reads_before);
      ("detection_latency", opt_num row.c_detect_latency);
      ("quarantines", Int row.c_quarantines);
      ("nonce_rejections", Int row.c_nonce_rejects);
      ("wrong_accepts", Int row.c_wrong);
      ("false_accusations", Arr (List.map (fun s -> Int s) row.c_false));
      ("ok", Bool (row.c_verdict = Ok ()));
      ("why", match row.c_verdict with Ok () -> Null | Error m -> Str m);
    ]

let run_campaign ~masters ~slaves_per_master ~clients ~items ~duration ~read_rate
    ~write_rate ~lie_prob ~read_nonces ~audit_adaptive ~seed ~modes ~json_out =
  let modes = if modes = [] then campaign_default_modes else modes in
  (* Reject an unknown mode before spending time on any simulation. *)
  List.iter
    (fun m ->
      match Fault.mode_of_string m with
      | Ok _ -> ()
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
    modes;
  Printf.printf "attack campaign: %d mode(s), seed %d, nonces=%b adaptive=%b\n"
    (List.length modes) seed read_nonces audit_adaptive;
  let rows =
    List.mapi
      (fun i mode ->
        let row =
          campaign_one ~mode ~masters ~slaves_per_master ~clients ~items ~duration
            ~read_rate ~write_rate ~lie_prob ~read_nonces ~audit_adaptive
            ~seed:(seed + (i * 7919))
        in
        Printf.printf "  %-16s liar %2d  launched %5d  suppressed %5d  accused-at %9s  \
                       reads-before %5s  quarantines %3d  %s\n"
          row.c_mode row.c_liar row.c_launched row.c_suppressed
          (match row.c_accused_at with Some t -> Printf.sprintf "%.1fs" t | None -> "-")
          (match row.c_reads_before with Some n -> string_of_int n | None -> "-")
          row.c_quarantines
          (match row.c_verdict with
          | Ok () -> "PASS"
          | Error why -> "FAIL: " ^ why);
        row)
      modes
  in
  (match json_out with
  | None -> ()
  | Some path ->
    write_out path
      (Export.Json.to_string (Export.Json.Arr (List.map json_of_campaign_row rows)) ^ "\n"));
  let failed = List.filter (fun r -> r.c_verdict <> Ok ()) rows in
  let falsely_accused = List.concat_map (fun r -> r.c_false) rows in
  if falsely_accused <> [] then
    Printf.printf "campaign: FALSE ACCUSATION of honest slave(s) [%s]\n"
      (String.concat "; " (List.map string_of_int (List.sort_uniq compare falsely_accused)));
  if failed = [] && falsely_accused = [] then
    Printf.printf "campaign: PASS (%d/%d attack modes neutralized, zero false accusations)\n"
      (List.length rows) (List.length rows)
  else begin
    Printf.printf "campaign: FAIL (%d/%d attack modes neutralized)\n"
      (List.length rows - List.length failed)
      (List.length rows);
    exit 1
  end

let campaign_cmd =
  let open Cmdliner in
  let masters = Arg.(value & opt int 2 & info [ "masters" ] ~doc:"Number of master servers.") in
  let slaves =
    Arg.(value & opt int 3 & info [ "slaves-per-master" ] ~doc:"Slaves per master.")
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Number of clients.") in
  let items = Arg.(value & opt int 100 & info [ "items" ] ~doc:"Documents in the content.") in
  let duration =
    Arg.(value & opt float 120.0 & info [ "duration" ] ~doc:"Workload duration per mode (sim seconds).")
  in
  let read_rate = Arg.(value & opt float 10.0 & info [ "read-rate" ] ~doc:"Reads per second.") in
  let write_rate =
    Arg.(value & opt float 0.05 & info [ "write-rate" ] ~doc:"Writes per second (0 = none).")
  in
  let lie_prob =
    Arg.(value & opt float 1.0 & info [ "lie-prob" ] ~doc:"Probability the slave lies per read.")
  in
  let read_nonces =
    Arg.(
      value
      & opt bool true
      & info [ "read-nonces" ] ~doc:"Run with the pledge replay defense on (default true).")
  in
  let audit_adaptive =
    Arg.(
      value
      & opt bool true
      & info [ "audit-adaptive" ]
          ~doc:"Run with suspicion-weighted audit sampling on (default true).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed; mode i runs at seed + 7919i.") in
  let modes =
    Arg.(
      value
      & opt_all string []
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            (Printf.sprintf
               "Attack mode to run (same grammar as run --lie-mode).  Repeatable; \
                default: %s."
               (String.concat ", " campaign_default_modes)))
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write one JSON record per attack mode to $(docv) ('-' = stdout).")
  in
  let term =
    Term.(
      const
        (fun masters slaves_per_master clients items duration read_rate write_rate lie_prob
             read_nonces audit_adaptive seed modes json_out ->
          run_campaign ~masters ~slaves_per_master ~clients ~items ~duration ~read_rate
            ~write_rate ~lie_prob ~read_nonces ~audit_adaptive ~seed ~modes ~json_out)
      $ masters $ slaves $ clients $ items $ duration $ read_rate $ write_rate $ lie_prob
      $ read_nonces $ audit_adaptive $ seed $ modes $ json_out)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Attack campaign: one seeded run per lie mode with the hardening knobs on, \
          asserting every attack is neutralized — convicted, quarantined, rejected or \
          suppressed — with zero false accusations.  Non-zero exit on any escape.")
    term

(* -- trace replay ------------------------------------------------------- *)

let replay_trace ~file ~sources ~kinds ~limit =
  let ic =
    if file = "-" then stdin
    else
      try open_in file
      with Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let matches_filter values value = values = [] || List.mem value values in
  let shown = ref 0 in
  let lineno = ref 0 in
  let errors = ref 0 in
  (try
     while limit = 0 || !shown < limit do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Export.record_of_line line with
         | Error msg ->
           incr errors;
           Printf.eprintf "line %d: %s\n" !lineno msg
         | Ok r ->
           if
             matches_filter sources r.Trace.source
             && matches_filter kinds (Event.kind r.Trace.event)
           then begin
             incr shown;
             Printf.printf "%12.6f  %-12s %s\n" r.Trace.time r.Trace.source
               (Event.to_string r.Trace.event)
           end
       end
     done
   with End_of_file -> ());
  if file <> "-" then close_in ic;
  if !errors > 0 then begin
    Printf.eprintf "%d malformed line(s)\n" !errors;
    exit 1
  end

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace dump produced by run --trace-out ('-' = stdin).")
  in
  let sources =
    Arg.(
      value
      & opt_all string []
      & info [ "source" ] ~docv:"SOURCE"
          ~doc:
            "Only show events from $(docv) (e.g. master-0, slave-3, client-1, auditor, \
             system).  Repeatable.")
  in
  let kinds =
    Arg.(
      value
      & opt_all string []
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            (Printf.sprintf "Only show events of kind $(docv).  Repeatable.  Known kinds: %s."
               (String.concat ", " Event.all_kinds)))
  in
  let limit =
    Arg.(
      value
      & opt int 0
      & info [ "limit" ] ~docv:"N" ~doc:"Stop after printing $(docv) events (0 = no limit).")
  in
  let term =
    Term.(
      const (fun file sources kinds limit -> replay_trace ~file ~sources ~kinds ~limit)
      $ file $ sources $ kinds $ limit)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a JSONL trace dump with optional source / event-kind filters.")
    term

(* -- offline monitor ---------------------------------------------------- *)

let run_monitor ~file ~max_latency ~audit ~window ~format ~lineage_out ~check =
  if format <> "text" && format <> "json" then begin
    Printf.eprintf "unknown format %S (expected text or json)\n" format;
    exit 2
  end;
  let ic =
    if file = "-" then stdin
    else
      try open_in file
      with Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let config =
    Config.validate_exn { Config.default with Config.max_latency; audit_enabled = audit }
  in
  let slo = Slo.create ~config:(Slo.config ?window config) () in
  let lineage = Lineage.create () in
  let end_time = ref 0.0 in
  let lineno = ref 0 in
  let errors = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Export.record_of_line line with
         | Error msg ->
           incr errors;
           Printf.eprintf "line %d: %s\n" !lineno msg
         | Ok r ->
           end_time := Float.max !end_time r.Trace.time;
           Lineage.observe lineage r;
           Slo.observe slo r
       end
     done
   with End_of_file -> ());
  if file <> "-" then close_in ic;
  Slo.finalize slo ~now:!end_time;
  let health = Health.build ~slo ~lineage () in
  (match format with
  | "json" -> print_string (Export.Json.to_string (Health.to_json health) ^ "\n")
  | _ -> Format.printf "%a" Health.pp health);
  (match lineage_out with
  | None -> ()
  | Some path -> write_out path (Lineage.jsonl lineage));
  if !errors > 0 then begin
    Printf.eprintf "%d malformed line(s)\n" !errors;
    exit 2
  end;
  if check && health.Health.alerts <> [] then exit 1

let monitor_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL trace dump produced by run/chaos --trace-out ('-' = stdin).")
  in
  let max_latency =
    Arg.(
      value
      & opt float 5.0
      & info [ "max-latency" ]
          ~doc:"Freshness bound the trace ran under; SLO thresholds derive from it.")
  in
  let audit =
    Arg.(
      value
      & opt bool true
      & info [ "audit" ] ~doc:"Whether the trace ran with the auditor on.")
  in
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Rolling-window span for rate rules (default 6 x max-latency).")
  in
  let format =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output: $(b,text) (human health report) or $(b,json) (machine summary).")
  in
  let lineage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "lineage-out" ] ~docv:"FILE"
          ~doc:"Also write per-request lineage records to $(docv) ('-' = stdout).")
  in
  let check =
    Arg.(
      value
      & flag
      & info [ "check" ] ~doc:"Exit 1 if any alert was raised (for CI gating).")
  in
  let term =
    Term.(
      const (fun file max_latency audit window format lineage_out check ->
          run_monitor ~file ~max_latency ~audit ~window ~format ~lineage_out ~check)
      $ file $ max_latency $ audit $ window $ format $ lineage_out $ check)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a JSONL trace through the causal-lineage and SLO monitors offline: \
          per-request lifecycle records, rule evaluation, and the end-of-run health \
          report, without re-running the simulation.")
    term

let () =
  let info =
    Cmd.info "secrep-sim" ~version:"1.0.0"
      ~doc:
        "Simulator for 'Secure Data Replication over Untrusted Hosts' (Popescu, Crispo, \
         Tanenbaum; HotOS 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; fuzz_cmd; chaos_cmd; campaign_cmd; trace_cmd; monitor_cmd ]))
