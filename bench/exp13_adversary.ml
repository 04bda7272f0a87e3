(* E13 — Strategic adversaries: detection latency and reads-before-
   detection per attack mode, uniform vs suspicion-weighted auditing
   (§2, §3.3, §3.5).

   Part 1 runs each strategic attack mode against the fully hardened
   system (read nonces + suspicion-weighted auditing) and reports what
   neutralized it, how fast, and how many times the adversary got to
   act first — with zero false accusations anywhere.  "Detected" is
   per mode family: omission carries no proof, so the flaky attacker
   is neutralized by the circuit breaker; a replayed pledge is
   rejected per-read by the nonce check and the slave flagged by
   quarantine; the rest are convicted on re-execution proof.

   Part 2 compares uniform and suspicion-weighted (adaptive) audit
   sampling at the same audit fraction against the audit-evasive
   attacks.  Audit re-execution convicts corrupt state (the control
   row: both policies convict it, at equal speed), but a replayed
   pledge re-executes clean at its claimed version and a frozen
   replica's pledges fall behind the audit cursor and are never
   re-executed at all — re-execution alone can rule on neither.  What
   those attacks do leave is a trail of weak, non-proof signals (nonce
   rejections, late pledges) that uniform sampling throws away and the
   suspicion-weighted auditor accumulates into quarantine.  We count
   the accepted reads each attacker serves before it is flagged;
   attackers the policy never flags are censored at their end-of-run
   total, which understates the gap (the true uniform figure is
   unbounded). *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Auditor = Secrep_core.Auditor
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog
module Mix = Secrep_workload.Mix
module Driver = Secrep_workload.Driver

let attack_modes =
  [
    ("corrupt", Fault.Corrupt_result);
    ("replay", Fault.Replay_pledge);
    ("equivocate:0", Fault.Equivocate { clique = [ 0 ] });
    ("adaptive:1.5", Fault.Adaptive { threshold = 1.5 });
    ("flaky-omit:3", Fault.Flaky_omit { burst = 3 });
  ]

(* Part 2 portfolio, with a per-mode lie probability.  Corrupt and
   stale are controls: audit re-execution convicts corrupt state, and
   a frozen replica's pledges fail the Merkle-batch inclusion check —
   both unconditional, so both policies catch them at the same speed.
   The replayer is the evasive one: every pledge it resends
   re-executes clean at its claimed version, so no amount of audit
   re-execution can convict it.  At 80% it keeps restocking fresh
   pledges to resend (the attack keeps extracting accepted reads all
   run) while the stale windows between restocks leave the freshness
   rejections that feed the suspicion score. *)
let evasive_modes =
  [
    ("corrupt", Fault.Corrupt_result, 0.5);
    ("replay", Fault.Replay_pledge, 0.8);
    ("stale", Fault.Stale_state, 1.0);
  ]

let family name =
  match String.index_opt name ':' with Some i -> String.sub name 0 i | None -> name

type outcome = {
  detector : string;  (* "conviction" | "quarantine" | "breaker" | "suppressed" | "-" *)
  detected : bool;
  detect_time : float;  (* end-of-run when censored *)
  reads_before : int;  (* accepted reads the liar served before detection *)
  attacks_before : int;  (* attacker actions before detection *)
  launched : int;
  suppressed : int;
  false_accusations : int;
  audited : int;  (* realized audit budget *)
}

let run_case ~mode:(name, fault_mode) ~adaptive ~audit_fraction ~lie_prob ~dc_p
    ~read_nonces ~write_rate ~duration ~read_rate ~seed =
  let config =
    Config.validate_exn
      {
        Exp_common.base_config with
        Config.audit_fraction;
        double_check_probability = dc_p;
        read_nonces;
        audit_adaptive = adaptive;
      }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:3 ~n_clients:6 ~config ~seed ()
  in
  (* Capture the live stream: the trace ring may wrap on long runs,
     subscribers see everything. *)
  let events_rev = ref [] in
  Trace.on_emit (System.trace system) (fun r -> events_rev := r :: !events_rev);
  let g = Prng.create ~seed:(Int64.add seed 77L) in
  let content = Catalog.product_catalog g ~n:50 in
  System.load_content system content;
  System.set_slave_behavior system ~slave:0
    (Fault.Malicious { probability = lie_prob; mode = fault_mode; from_time = 0.0 });
  let keys = Array.of_list (List.map fst content) in
  let mix = Mix.create ~rng:(Prng.split g) ~keys () in
  let driver = Driver.create system ~mix ~rng:(Prng.split g) () in
  Driver.run_reads driver ~rate:read_rate ~duration;
  if write_rate > 0.0 then Driver.run_writes driver ~rate:write_rate ~duration ~writer:0;
  System.run_for system (duration +. (4.0 *. config.Config.max_latency) +. 60.0);
  let end_time = Sim.now (System.sim system) in
  let events = List.rev !events_rev in
  let first_convicted = ref None in
  let first_quarantine = ref None in
  let first_breaker = ref None in
  let launched = ref 0 and suppressed = ref 0 in
  let false_acc = ref [] in
  let note cell time = if !cell = None then cell := Some time in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      (* Accusations are proof-backed only: a double-check mismatch the
         master rules inconclusive (§3.5 version skew) excludes nobody,
         so it does not count as detection — it is exactly the weak
         signal the adaptive auditor feeds on. *)
      | Event.Audit_conviction { slave = 0; _ } | Event.Slave_excluded { slave = 0; _ } ->
        note first_convicted r.Trace.time
      | Event.Audit_conviction { slave; _ } | Event.Slave_excluded { slave; _ } ->
        false_acc := slave :: !false_acc
      | Event.Slave_quarantined { slave = 0; _ } -> note first_quarantine r.Trace.time
      | Event.Breaker_opened { slave = 0; _ } -> note first_breaker r.Trace.time
      | Event.Attack_launched { slave = 0; _ } -> incr launched
      | Event.Attack_suppressed { slave = 0; _ } -> incr suppressed
      | _ -> ())
    events;
  let candidates =
    match family name with
    | "flaky-omit" -> [ ("breaker", !first_breaker) ]
    | _ -> [ ("conviction", !first_convicted); ("quarantine", !first_quarantine) ]
  in
  let detect =
    List.fold_left
      (fun acc (tag, cell) ->
        match (acc, cell) with
        | None, Some t -> Some (tag, t)
        | Some (_, bt), Some t when t < bt -> Some (tag, t)
        | acc, _ -> acc)
      None candidates
  in
  let detect_time = match detect with Some (_, t) -> t | None -> end_time in
  (* Reads-before-detection: accepted reads the malicious slave served
     before it was flagged (all of them when censored).  Attacker
     actions: strategic modes emit [Attack_launched]; the corrupt
     baseline signs lied pledges.  Some modes do both for the same
     read, so take the max, not the sum. *)
  let reads_before = ref 0 in
  let acts_launched = ref 0 and acts_lied = ref 0 in
  List.iter
    (fun (r : Trace.record) ->
      if r.Trace.time < detect_time then
        match r.Trace.event with
        | Event.Read_answered { slave = 0; outcome = "accepted"; _ } -> incr reads_before
        | Event.Attack_launched { slave = 0; _ } -> incr acts_launched
        | Event.Pledge_signed { slave = 0; lied = true; _ } -> incr acts_lied
        | _ -> ())
    events;
  let detector, detected =
    match detect with
    | Some (tag, _) -> (tag, true)
    | None ->
      if family name = "adaptive" && !launched = 0 then ("suppressed", true)
      else ("-", false)
  in
  {
    detector;
    detected;
    detect_time;
    reads_before = !reads_before;
    attacks_before = max !acts_launched !acts_lied;
    launched = !launched;
    suppressed = !suppressed;
    false_accusations = List.length !false_acc;
    audited = Auditor.audited (System.auditor system);
  }

let run ?(quick = false) fmt =
  let duration = if quick then 60.0 else 120.0 in
  let trials = if quick then 4 else 10 in
  let read_rate = 8.0 in
  (* Part 1: full hardening (nonces + adaptive auditing at the full
     audit budget), blatant prob-1.0 attacker — every attack mode must
     be neutralized. *)
  let hardened =
    List.map
      (fun mode ->
        ( fst mode,
          run_case ~mode ~adaptive:true ~audit_fraction:1.0 ~lie_prob:1.0 ~dc_p:0.05
            ~read_nonces:true ~write_rate:0.05 ~duration ~read_rate ~seed:424242L ))
      attack_modes
  in
  Exp_common.table fmt
    ~title:
      "E13a Strategic attacks vs the hardened protocol (read nonces +\n\
      \     suspicion-weighted auditing, full audit budget)"
    ~header:
      [ "mode"; "launched"; "suppressed"; "detector"; "detect (s)"; "attacks-before";
        "false-acc" ]
    (List.map
       (fun (name, o) ->
         [
           name;
           string_of_int o.launched;
           string_of_int o.suppressed;
           o.detector;
           (if o.detected && o.detector <> "suppressed" then Exp_common.f2 o.detect_time
            else "-");
           string_of_int o.attacks_before;
           string_of_int o.false_accusations;
         ])
       hardened);
  (* Part 2: uniform vs adaptive at the same audit fraction, against
     the audit-evasive portfolio.  A modest write stream keeps the
     audit cursor moving so a frozen replica's pledges actually fall
     behind it.  Means over [trials] seeds per mode. *)
  let fraction = 0.25 in
  let writes = 2.0 in
  let mean_of ~adaptive (name, fault, lie_prob) =
    let outs =
      List.init trials (fun i ->
          (* dc_p = 0 and nonces off isolate the audit layer: the only
             detector in play is the sampling policy under test. *)
          run_case ~mode:(name, fault) ~adaptive ~audit_fraction:fraction ~lie_prob
            ~dc_p:0.0 ~read_nonces:false ~write_rate:writes ~duration ~read_rate
            ~seed:(Int64.of_int (1000 + (i * 7919))))
    in
    let mean f = Exp_common.mean (List.map f outs) in
    ( mean (fun o -> float_of_int o.reads_before),
      mean (fun o -> float_of_int o.audited),
      List.length (List.filter (fun o -> o.detected) outs),
      List.length (List.filter (fun o -> o.false_accusations > 0) outs) )
  in
  let compared =
    List.map
      (fun ((name, _, _) as mode) ->
        let u_reads, u_audited, u_detected, u_false = mean_of ~adaptive:false mode in
        let a_reads, a_audited, a_detected, a_false = mean_of ~adaptive:true mode in
        ( name, u_reads, u_audited, u_detected, a_reads, a_audited, a_detected,
          u_false + a_false ))
      evasive_modes
  in
  Exp_common.table fmt
    ~title:
      (Printf.sprintf
         "E13b Uniform vs suspicion-weighted audit sampling at equal budget\n\
         \     (audit fraction %.2f, %.0f write/s, %d trials/mode; corrupt and\n\
         \     stale are controls that re-execution convicts either way, the\n\
         \     replayer evades re-execution entirely; reads-before-detection\n\
         \     censored at end-of-run for unflagged attackers)"
         fraction writes trials)
    ~header:
      [ "mode"; "uniform reads"; "uniform audited"; "caught"; "adaptive reads";
        "adaptive audited"; "caught" ]
    (List.map
       (fun (name, ur, ub, ud, ar, ab, ad, _) ->
         [
           name;
           Exp_common.f2 ur;
           Exp_common.f2 ub;
           Printf.sprintf "%d/%d" ud trials;
           Exp_common.f2 ar;
           Exp_common.f2 ab;
           Printf.sprintf "%d/%d" ad trials;
         ])
       compared);
  let uniform_mean =
    Exp_common.mean (List.map (fun (_, ur, _, _, _, _, _, _) -> ur) compared)
  in
  let adaptive_mean =
    Exp_common.mean (List.map (fun (_, _, _, _, ar, _, _, _) -> ar) compared)
  in
  let detected = List.length (List.filter (fun (_, o) -> o.detected) hardened) in
  (* Runs, over both parts, in which an honest slave was accused. *)
  let accusing_runs =
    List.length (List.filter (fun (_, o) -> o.false_accusations > 0) hardened)
    + List.fold_left (fun acc (_, _, _, _, _, _, _, f) -> acc + f) 0 compared
  in
  [
    Exp_common.gate "all attack modes detected"
      ~value:(Printf.sprintf "%d/%d" detected (List.length hardened))
      ~threshold:"all"
      (detected = List.length hardened);
    Exp_common.gate "zero false accusations"
      ~value:(Printf.sprintf "%d run(s) accusing an honest slave" accusing_runs)
      ~threshold:"0"
      (accusing_runs = 0);
    Exp_common.gate "adaptive strictly better"
      ~value:
        (Printf.sprintf "mean reads-before-detection adaptive %.2f vs uniform %.2f"
           adaptive_mean uniform_mean)
      ~threshold:"adaptive < uniform"
      (adaptive_mean < uniform_mean);
  ]
