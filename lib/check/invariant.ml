module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event

type checker = {
  name : string;
  doc : string;
  check : Harness.run_result -> (unit, string) result;
}

let eps = 1e-6

let events_of (r : Harness.run_result) = r.Harness.events

(* Accusation events: the three ways the protocol points a finger. *)
let accused_slaves result =
  List.filter_map
    (fun (rec_ : Trace.record) ->
      match rec_.Trace.event with
      | Event.Audit_conviction { slave; _ } | Event.Slave_excluded { slave; _ }
      | Event.Double_check { slave; outcome = Event.Mismatch; _ } ->
        Some slave
      | _ -> None)
    (events_of result)

let detection =
  {
    name = "detection";
    doc =
      "accepted wrong answers are eventually flagged (audit on, loss-free net, no chaos; \
       replayed pledges without read nonces excepted)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        (* Chaos voids the guarantee the same way loss does: an auditor
           cut drops the forwarded pledge that would have convicted. *)
        if (not s.Scenario.audit) || Scenario.lossy s || Scenario.has_chaos s then Ok ()
        else begin
          let flagged = accused_slaves result in
          (* A replayed pledge re-executes clean, so audits alone can
             never convict it; its defense is read nonces, which
             [replay-rejection] checks.  Without nonces its reads are
             out of scope here. *)
          let replayers =
            if s.Scenario.read_nonces then []
            else
              List.filter_map
                (fun (f : Scenario.fault) ->
                  if f.Scenario.mode = Secrep_core.Fault.Replay_pledge then Some f.Scenario.slave
                  else None)
                s.Scenario.faults
          in
          let unflagged =
            List.filter
              (fun (a : Harness.accepted_read) ->
                a.Harness.wrong && a.Harness.slave >= 0
                && (not (List.mem a.Harness.slave flagged))
                && not (List.mem a.Harness.slave replayers))
              result.Harness.accepted
          in
          match unflagged with
          | [] -> Ok ()
          | a :: _ ->
            Error
              (Printf.sprintf
                 "client %d accepted a wrong answer from slave %d (version %d, t=%.3f) \
                  and the slave was never flagged by double-check, audit or exclusion"
                 a.Harness.client a.Harness.slave a.Harness.version a.Harness.time)
        end);
  }

let no_false_accusation =
  {
    name = "no-false-accusation";
    doc = "an all-honest run never accuses anyone";
    check =
      (fun result ->
        if not (Scenario.honest result.Harness.scenario) then Ok ()
        else begin
          match accused_slaves result with
          | [] -> Ok ()
          | slave :: _ ->
            Error
              (Printf.sprintf
                 "slave %d was accused (conviction, exclusion or double-check mismatch) \
                  in a run with no injected faults"
                 slave)
        end);
  }

let staleness =
  {
    name = "staleness";
    doc = "verified pledges are never staler than max_latency";
    check =
      (fun result ->
        let max_latency = result.Harness.scenario.Scenario.max_latency in
        (* Latest commit time of each version across masters: a slave's
           keep-alive for version v predates its own master's commit of
           v+1, which is bounded by this. *)
        let commits = Hashtbl.create 64 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Write_committed { version; _ } ->
              let prev =
                match Hashtbl.find_opt commits version with
                | Some t -> t
                | None -> neg_infinity
              in
              Hashtbl.replace commits version (Float.max prev r.Trace.time)
            | _ -> ())
          (events_of result);
        let violation =
          List.find_opt
            (fun (r : Trace.record) ->
              match r.Trace.event with
              | Event.Pledge_verified { ok = true; version; _ } -> begin
                match Hashtbl.find_opt commits (version + 1) with
                | Some committed -> r.Trace.time > committed +. max_latency +. eps
                | None -> false
              end
              | _ -> false)
            (events_of result)
        in
        match violation with
        | None -> Ok ()
        | Some r ->
          let version =
            match r.Trace.event with
            | Event.Pledge_verified { version; _ } -> version
            | _ -> -1
          in
          Error
            (Printf.sprintf
               "pledge for version %d verified OK at t=%.3f, more than max_latency=%.3g \
                after version %d committed at t=%.3f"
               version r.Trace.time max_latency (version + 1)
               (Hashtbl.find commits (version + 1))));
  }

let write_spacing =
  {
    name = "write-spacing";
    doc = "per-master commits are at least max_latency apart";
    check =
      (fun result ->
        let max_latency = result.Harness.scenario.Scenario.max_latency in
        let by_master = Hashtbl.create 8 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Write_committed { master; version } ->
              let prev =
                match Hashtbl.find_opt by_master master with Some l -> l | None -> []
              in
              Hashtbl.replace by_master master ((version, r.Trace.time) :: prev)
            | _ -> ())
          (events_of result);
        Hashtbl.fold
          (fun master commits acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
              let sorted =
                List.sort (fun (v1, _) (v2, _) -> compare v1 v2) commits
              in
              let rec walk = function
                | (v1, t1) :: ((v2, t2) :: _ as rest) ->
                  if t2 -. t1 < max_latency -. eps then
                    Error
                      (Printf.sprintf
                         "master %d committed version %d at t=%.3f and version %d at \
                          t=%.3f, closer than max_latency=%.3g"
                         master v1 t1 v2 t2 max_latency)
                  else walk rest
                | [ _ ] | [] -> Ok ()
              in
              walk sorted)
          by_master (Ok ()));
  }

let pledge_validity =
  {
    name = "pledge-validity";
    doc = "every accepted read is backed by an OK pledge verification";
    check =
      (fun result ->
        let verified = Hashtbl.create 64 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Pledge_verified { ok = true; client; slave; version; _ } ->
              let k = (client, slave, version) in
              let n = match Hashtbl.find_opt verified k with Some n -> n | None -> 0 in
              Hashtbl.replace verified k (n + 1)
            | _ -> ())
          (events_of result);
        (* Multiset check: consume one verification per accepted read. *)
        let rec consume = function
          | [] -> Ok ()
          | (a : Harness.accepted_read) :: rest ->
            let k = (a.Harness.client, a.Harness.slave, a.Harness.version) in
            let n = match Hashtbl.find_opt verified k with Some n -> n | None -> 0 in
            if n <= 0 then
              Error
                (Printf.sprintf
                   "client %d accepted a read from slave %d at version %d (t=%.3f) with \
                    no matching OK pledge verification"
                   a.Harness.client a.Harness.slave a.Harness.version a.Harness.time)
            else begin
              Hashtbl.replace verified k (n - 1);
              consume rest
            end
        in
        consume result.Harness.accepted);
  }

let availability =
  {
    name = "availability";
    doc = "every issued read completes: accepted, served by the master, or an explicit give-up";
    check =
      (fun result ->
        let issued = Hashtbl.create 8 and answered = Hashtbl.create 8 in
        let bump tbl client =
          let n = match Hashtbl.find_opt tbl client with Some n -> n | None -> 0 in
          Hashtbl.replace tbl client (n + 1)
        in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Read_issued { client; _ } -> bump issued client
            | Event.Read_answered { client; _ } -> bump answered client
            | _ -> ())
          (events_of result);
        Hashtbl.fold
          (fun client n_issued acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
              let n_answered =
                match Hashtbl.find_opt answered client with Some n -> n | None -> 0
              in
              if n_answered = n_issued then Ok ()
              else
                Error
                  (Printf.sprintf
                     "client %d issued %d read(s) but only %d completed by t=%.3f — a read \
                      hung without being accepted, served by the master, or failed \
                      explicitly"
                     client n_issued n_answered result.Harness.end_time))
          issued (Ok ()));
  }

(* -- recovery convergence --------------------------------------------- *)

(* Node names as emitted by [System.node_name]. *)
let slave_of_node node =
  match String.index_opt node '-' with
  | Some i when String.sub node 0 i = "slave" -> (
    match int_of_string_opt (String.sub node (i + 1) (String.length node - i - 1)) with
    | Some n -> Some n
    | None -> None)
  | _ -> None

let is_master_node node = String.length node >= 7 && String.sub node 0 7 = "master-"

(* Half-open disturbance windows [a, b): a window closing exactly when a
   recovery happens does not disturb that recovery. *)
let overlaps intervals t0 d = List.exists (fun (a, b) -> a < d && t0 < b) intervals

let recovery_convergence =
  {
    name = "recovery-convergence";
    doc =
      "a node that rejoins after a partition or crash reaches the committed version \
       within max_latency (clean network, honest slave, no overlapping disturbance)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if Scenario.lossy s then Ok ()
        else begin
          let max_latency = s.Scenario.max_latency in
          let faulty =
            List.map (fun (f : Scenario.fault) -> f.Scenario.slave) s.Scenario.faults
          in
          (* One pass to collect commits, updates, recoveries, and the
             disturbance windows that make a recovery unjudgeable. *)
          let commits = ref [] (* (time, version) *)
          and updates = ref [] (* (time, slave, to_version) *)
          and recoveries = ref [] (* (time, slave, version) *)
          and exclusions = ref [] (* (time, slave) *)
          and master_down = ref [] (* (from, until) *)
          and slave_down = ref [] (* (slave, (from, until)) *)
          and degraded = ref [] (* (from, until) *)
          and open_master = Hashtbl.create 4
          and open_slave = Hashtbl.create 8
          and open_degraded = ref None in
          List.iter
            (fun (r : Trace.record) ->
              let t = r.Trace.time in
              match r.Trace.event with
              | Event.Write_committed { version; _ } -> commits := (t, version) :: !commits
              | Event.State_update_applied { slave; to_version; _ } ->
                updates := (t, slave, to_version) :: !updates
              | Event.Node_recovered { node; version } -> (
                match slave_of_node node with
                | Some n ->
                  recoveries := (t, n, version) :: !recoveries;
                  (* a crash window for this slave closes here *)
                  (match Hashtbl.find_opt open_slave (`Crash n) with
                  | Some from ->
                    Hashtbl.remove open_slave (`Crash n);
                    slave_down := (n, (from, t)) :: !slave_down
                  | None -> ())
                | None -> ())
              | Event.Node_crashed { node } -> (
                if is_master_node node then master_down := (t, infinity) :: !master_down
                else
                  match slave_of_node node with
                  | Some n -> Hashtbl.replace open_slave (`Crash n) t
                  | None -> ())
              | Event.Partition { target; up } when is_master_node target ->
                if not up then Hashtbl.replace open_master target t
                else begin
                  match Hashtbl.find_opt open_master target with
                  | Some from ->
                    Hashtbl.remove open_master target;
                    master_down := (from, t) :: !master_down
                  | None -> ()
                end
              | Event.Partition { target; up } -> (
                match slave_of_node target with
                | Some n ->
                  if not up then Hashtbl.replace open_slave (`Cut n) t
                  else begin
                    match Hashtbl.find_opt open_slave (`Cut n) with
                    | Some from ->
                      Hashtbl.remove open_slave (`Cut n);
                      slave_down := (n, (from, t)) :: !slave_down
                    | None -> ()
                  end
                | None -> ())
              | Event.Net_degraded { loss; latency_factor } ->
                let is_degraded = loss > 0.0 || latency_factor <> 1.0 in
                (match (!open_degraded, is_degraded) with
                | None, true -> open_degraded := Some t
                | Some from, false ->
                  open_degraded := None;
                  degraded := (from, t) :: !degraded
                | None, false | Some _, true -> ())
              | Event.Slave_excluded { slave; _ } -> exclusions := (t, slave) :: !exclusions
              | _ -> ())
            (events_of result);
          (* Windows still open at the end of the run never healed. *)
          Hashtbl.iter (fun _ from -> master_down := (from, infinity) :: !master_down)
            open_master;
          Hashtbl.iter
            (fun key from ->
              match key with
              | `Crash n | `Cut n -> slave_down := (n, (from, infinity)) :: !slave_down)
            open_slave;
          (match !open_degraded with
          | Some from -> degraded := (from, infinity) :: !degraded
          | None -> ());
          let check_one acc (t0, n, v_rejoin) =
            match acc with
            | Error _ -> acc
            | Ok () ->
              let deadline = t0 +. max_latency in
              let judgeable =
                result.Harness.end_time >= deadline
                && (not (List.mem n faulty))
                && (not (overlaps !master_down t0 deadline))
                && (not
                      (overlaps
                         (List.filter_map
                            (fun (m, iv) -> if m = n then Some iv else None)
                            !slave_down)
                         t0 deadline))
                && (not (overlaps !degraded t0 deadline))
                && not (List.exists (fun (t, m) -> m = n && t <= deadline) !exclusions)
              in
              if not judgeable then Ok ()
              else begin
                let committed =
                  List.fold_left
                    (fun acc (t, v) -> if t <= t0 +. eps then max acc v else acc)
                    0 !commits
                in
                let converged =
                  v_rejoin >= committed
                  || List.exists
                       (fun (t, m, v) ->
                         m = n && t >= t0 -. eps && t <= deadline +. eps && v >= committed)
                       !updates
                in
                if converged then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "slave %d rejoined at t=%.3f with version %d but did not reach \
                        committed version %d by t=%.3f (max_latency=%.3g)"
                       n t0 v_rejoin committed deadline max_latency)
              end
          in
          List.fold_left check_one (Ok ()) (List.rev !recoveries)
        end);
  }

(* -- adversary invariants --------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Attribute a Pledge_verified event to the attack that provoked it.
   Retries reuse the read's request id, so (client, slave, request)
   alone is ambiguous: a rejected lie followed by an honest retry to
   the same slave produces an OK verification under the same triple.
   The first verification of the triple inside
   [launch_time, issue_time + read_timeout) is unambiguous, though:
   a retry can only be verified inside that window after an earlier
   rejection of the attacked attempt (which then comes first), because
   absent a reply the client waits out the full timeout, which ends
   the window.  A launch with no verification in its window (reply
   lost to a latency tail) is simply not judged. *)
let attack_verification events ~issue_times ~read_timeout (slave, client, request, t0) =
  match Hashtbl.find_opt issue_times (client, request) with
  | None -> None
  | Some issued ->
    let window_end = issued +. read_timeout -. eps in
    List.find_opt
      (fun (r : Trace.record) ->
        r.Trace.time >= t0 -. eps
        && r.Trace.time < window_end
        &&
        match r.Trace.event with
        | Event.Pledge_verified { client = c; slave = s; request = q; _ } ->
          c = client && s = slave && q = request
        | _ -> false)
      events

let issue_times_of events =
  let issued = Hashtbl.create 64 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Read_issued { client; request; _ } ->
        if not (Hashtbl.mem issued (client, request)) then
          Hashtbl.add issued (client, request) r.Trace.time
      | _ -> ())
    events;
  issued

let launches_of events ~mode_prefix =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Attack_launched { slave; mode; client; request }
        when starts_with ~prefix:mode_prefix mode ->
        Some (slave, client, request, r.Trace.time)
      | _ -> None)
    events

let replay_rejection =
  {
    name = "replay-rejection";
    doc =
      "with read nonces on, a replayed pledge delivered in time is rejected, and the \
       rejection names the nonce mismatch";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if not s.Scenario.read_nonces then Ok ()
        else begin
          let events = events_of result in
          let launches = launches_of events ~mode_prefix:"replay-pledge" in
          if launches = [] then Ok ()
          else begin
            let issue_times = issue_times_of events in
            let read_timeout =
              Secrep_core.Config.read_timeout_factor *. s.Scenario.max_latency
            in
            List.fold_left
              (fun acc ((slave, client, request, t0) as launch) ->
                match acc with
                | Error _ -> acc
                | Ok () -> (
                  match
                    attack_verification events ~issue_times ~read_timeout launch
                  with
                  | None -> Ok ()
                  | Some r -> (
                    match r.Trace.event with
                    | Event.Pledge_verified { ok = true; _ } ->
                      Error
                        (Printf.sprintf
                           "slave %d replayed a pledge to client %d (request %d, \
                            t=%.3f) and the client verified it OK at t=%.3f despite \
                            read nonces being on"
                           slave client request t0 r.Trace.time)
                    | Event.Pledge_verified { ok = false; reason; _ } ->
                      if starts_with ~prefix:"nonce" reason then Ok ()
                      else
                        Error
                          (Printf.sprintf
                             "slave %d replayed a pledge to client %d (request %d, \
                              t=%.3f); it was rejected at t=%.3f but for %S, not the \
                              nonce mismatch"
                             slave client request t0 r.Trace.time reason)
                    | _ -> Ok ())))
              (Ok ()) launches
          end
        end);
  }

let equivocation_detection =
  {
    name = "equivocation-detection";
    doc =
      "an equivocating slave whose lie was verified OK is flagged by the end of the \
       run (audit on, uniform sampling, clean net, no chaos, no audit overload)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        let overloaded =
          List.exists
            (fun (r : Trace.record) ->
              match r.Trace.event with Event.Audit_overload _ -> true | _ -> false)
            (events_of result)
        in
        if
          (not s.Scenario.audit)
          || s.Scenario.audit_adaptive || Scenario.lossy s || Scenario.has_chaos s
          || overloaded
        then Ok ()
        else begin
          let events = events_of result in
          let launches = launches_of events ~mode_prefix:"equivocate" in
          if launches = [] then Ok ()
          else begin
            let issue_times = issue_times_of events in
            let read_timeout =
              Secrep_core.Config.read_timeout_factor *. s.Scenario.max_latency
            in
            let flagged = accused_slaves result in
            List.fold_left
              (fun acc ((slave, client, request, t0) as launch) ->
                match acc with
                | Error _ -> acc
                | Ok () -> (
                  match
                    attack_verification events ~issue_times ~read_timeout launch
                  with
                  | Some { Trace.event = Event.Pledge_verified { ok = true; _ }; _ }
                    when not (List.mem slave flagged) ->
                    Error
                      (Printf.sprintf
                         "slave %d equivocated to client %d (request %d, t=%.3f), the \
                          lie was verified OK, and the slave was never flagged by \
                          double-check, audit or exclusion"
                         slave client request t0)
                  | _ -> Ok ()))
              (Ok ()) launches
          end
        end);
  }

let adaptive_no_worse =
  {
    name = "adaptive-no-worse";
    doc =
      "under common random numbers, suspicion-weighted sampling detects no later than \
       uniform sampling, and with a lone liar catches at least as many lies";
    check =
      (fun result ->
        let module Audit_core = Secrep_core.Audit_core in
        let module Prng = Secrep_crypto.Prng in
        let pledges = result.Harness.pledges in
        if pledges = [] then Ok ()
        else begin
          let s = result.Harness.scenario in
          let rng =
            Prng.create
              ~seed:(Int64.add (Int64.of_int s.Scenario.sys_seed) 0x5EC4E9L)
          in
          let draws =
            Array.init (List.length pledges) (fun _ -> Prng.float rng)
          in
          let fraction = 0.5 in
          let run adaptive =
            Audit_core.run_sampled ~draws ~fraction ~adaptive
              ~slave_public:result.Harness.slave_public ~reexec:result.Harness.reexec
              pledges
          in
          let uni = run false and ada = run true in
          if uni.Audit_core.first_caught <> ada.Audit_core.first_caught then
            Error
              (Printf.sprintf
                 "first detection diverged under common random numbers: uniform \
                  sampling caught at stream index %s, adaptive at %s (they share every \
                  decision until the first catch)"
                 (match uni.Audit_core.first_caught with
                 | Some i -> string_of_int i
                 | None -> "never")
                 (match ada.Audit_core.first_caught with
                 | Some i -> string_of_int i
                 | None -> "never"))
          else begin
            let naive =
              Audit_core.run_naive ~slave_public:result.Harness.slave_public
                ~reexec:result.Harness.reexec pledges
            in
            let liars =
              List.sort_uniq compare
                (List.filter_map
                   (fun (p, v) ->
                     if Audit_core.equal_verdict v Audit_core.Caught then
                       Some p.Secrep_core.Pledge.slave_id
                     else None)
                   (List.combine pledges naive))
            in
            if List.length liars <= 1 && ada.Audit_core.caught < uni.Audit_core.caught
            then
              Error
                (Printf.sprintf
                   "with a lone lying slave, adaptive sampling caught %d lying \
                    pledge(s) but uniform sampling caught %d on the same draws — the \
                    liar's audit probability should never drop below the uniform \
                    fraction"
                   ada.Audit_core.caught uni.Audit_core.caught)
            else Ok ()
          end
        end);
  }

let differential_audit =
  {
    name = "differential-audit";
    doc =
      "the production auditor's judgement and the naive per-pledge auditor emit \
       identical verdicts over the run's recorded pledge stream";
    check =
      (fun result ->
        let module Audit_core = Secrep_core.Audit_core in
        let pledges = result.Harness.pledges in
        let naive =
          Audit_core.run_naive ~slave_public:result.Harness.slave_public
            ~reexec:result.Harness.reexec pledges
        in
        let dedup, _memo =
          Audit_core.run_dedup ~slave_public:result.Harness.slave_public
            ~reexec:result.Harness.reexec pledges
        in
        if List.length naive <> List.length dedup then
          Error
            (Printf.sprintf
               "verdict count mismatch: naive produced %d, dedup produced %d (both \
                audited the same %d pledges)"
               (List.length naive) (List.length dedup) (List.length pledges))
        else
          let rec compare_at i = function
            | [] -> Ok ()
            | (vn, vd) :: rest ->
              if Audit_core.equal_verdict vn vd then compare_at (i + 1) rest
              else
                let pledge = List.nth pledges i in
                Error
                  (Printf.sprintf
                     "pledge #%d (slave %d, version %d): naive auditor says %s, dedup \
                      auditor says %s"
                     i pledge.Secrep_core.Pledge.slave_id
                     (Secrep_core.Pledge.version pledge)
                     (Format.asprintf "%a" Audit_core.pp_verdict vn)
                     (Format.asprintf "%a" Audit_core.pp_verdict vd))
          in
          compare_at 0 (List.combine naive dedup));
  }

let parallel_determinism =
  {
    name = "parallel-determinism";
    doc =
      "re-running a sharded scenario on the parallel domain scheduler yields \
       byte-identical per-shard event streams to the sequential scheduler";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if s.Scenario.n_shards <= 1 then Ok ()
        else begin
          (* Full differential: both schedulers replay the scenario from
             scratch, so the comparison covers everything downstream of
             the scheduler — PRNG draws, chaos fan-out, rebalances,
             auditor budgets — not just the merge order. *)
          let digests domains =
            List.map Harness.events_digest (Harness.run ~domains s)
          in
          let sequential = digests 0 and parallel = digests 2 in
          let rec walk i = function
            | [], [] -> Ok ()
            | d0 :: r0, d2 :: r2 ->
              if String.equal d0 d2 then walk (i + 1) (r0, r2)
              else
                Error
                  (Printf.sprintf
                     "shard %d diverged under the parallel scheduler: sequential \
                      stream digest %s, 2-domain digest %s"
                     i d0 d2)
            | l0, l2 ->
              Error
                (Printf.sprintf
                   "scheduler runs disagree on shard count from shard %d: sequential \
                    has %d more, parallel has %d more"
                   i (List.length l0) (List.length l2))
          in
          walk 0 (sequential, parallel)
        end);
  }

let alert_coverage =
  {
    name = "alert-coverage";
    doc =
      "every violated invariant with an online SLO counterpart is covered by a raised \
       alert of the matching rule";
    check =
      (fun result ->
        let module Slo = Secrep_monitor.Slo in
        let s = result.Harness.scenario in
        (* Mirror the harness's config so the monitor judges the run by
           the thresholds it actually ran under. *)
        let config = Scenario.config s in
        let violated =
          List.filter_map
            (fun c ->
              match Slo.rule_for_invariant c.name with
              | None -> None
              | Some rule -> (
                match c.check result with
                | Ok () -> None
                | Error msg -> Some (c.name, rule, msg)))
            [
              detection;
              no_false_accusation;
              staleness;
              write_spacing;
              availability;
              recovery_convergence;
            ]
        in
        if violated = [] then Ok ()
        else begin
          let slo = Slo.create ~config:(Slo.config config) () in
          List.iter (Slo.observe slo) (events_of result);
          Slo.finalize slo ~now:result.Harness.end_time;
          let uncovered =
            List.filter (fun (_, rule, _) -> not (Slo.was_raised slo rule)) violated
          in
          match uncovered with
          | [] -> Ok ()
          | (inv, rule, msg) :: _ ->
            Error
              (Printf.sprintf
                 "invariant %s was violated but the SLO monitor never raised the %S alert \
                  (raised: %s) — underlying violation: %s"
                 inv rule
                 (match Slo.raised_rules slo with
                 | [] -> "none"
                 | rs -> String.concat ", " rs)
                 msg)
        end);
  }

let all =
  [
    detection;
    no_false_accusation;
    staleness;
    write_spacing;
    pledge_validity;
    availability;
    recovery_convergence;
    differential_audit;
    replay_rejection;
    equivocation_detection;
    adaptive_no_worse;
    parallel_determinism;
    alert_coverage;
  ]

let named names =
  match names with
  | [] -> Ok all
  | _ ->
    let resolve name =
      match List.find_opt (fun c -> c.name = name) all with
      | Some c -> Ok c
      | None ->
        Error
          (Printf.sprintf "unknown invariant %S (known: %s)" name
             (String.concat ", " (List.map (fun c -> c.name) all)))
    in
    List.fold_right
      (fun name acc ->
        match (resolve name, acc) with
        | Ok c, Ok cs -> Ok (c :: cs)
        | Error e, _ -> Error e
        | _, Error e -> Error e)
      names (Ok [])

let check_all checkers result =
  List.fold_left
    (fun acc c ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match c.check result with
        | Ok () -> Ok ()
        | Error msg -> Error (Printf.sprintf "[%s] %s" c.name msg)))
    (Ok ()) checkers
