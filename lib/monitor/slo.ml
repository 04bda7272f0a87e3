module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Rolling = Secrep_sim.Rolling
module Json = Secrep_sim.Export.Json
module Config = Secrep_core.Config

let eps = 1e-6

(* Thresholds that do not scale with the protocol parameters. *)
let latency_min_samples = 20 (* p99 reads before read-latency is judged *)
let unavail_budget = 0.05 (* tolerated bad-completion fraction *)
let burn_raise = 2.0 (* raise availability when the burn rate >= this *)
let burn_clear = 1.0 (* clear it when the burn rate < this *)
let avail_min_samples = 10 (* completions before the burn rate is judged *)
let breaker_rate = 3 (* breaker opens per window before alerting *)

type config = {
  max_latency : float;
  window : float;  (* rolling-window span, seconds *)
  audit_enabled : bool;
  read_deadline : float;  (* hung-read bound, seconds after issue *)
  detection_budget : float;  (* lie -> accusation bound *)
  audit_deadline : float;  (* commit -> audit-advance bound *)
}

let config ?window (cfg : Config.t) =
  let ml = cfg.Config.max_latency in
  let window = match window with Some w -> w | None -> 6.0 *. ml in
  {
    max_latency = ml;
    window;
    audit_enabled = cfg.Config.audit_enabled;
    (* A read still unanswered this long after issue has outlived every
       retry, timeout and backoff the client could legally spend. *)
    read_deadline = Config.read_give_up_bound cfg +. ml;
    (* Conviction of a lie at version v waits at most for commit(v+1)
       to age past the audit lag slack, plus delivery and re-execution. *)
    detection_budget = (2.0 *. ml) +. cfg.Config.audit_lag_slack +. 1.0;
    (* The auditor advances past version v at commit(v+1) + ml + slack;
       grace of ml + 1 covers delivery and queued audit work. *)
    audit_deadline = (2.0 *. ml) +. cfg.Config.audit_lag_slack +. 1.0;
  }

let rule_names =
  [
    "staleness";
    "read-latency";
    "availability";
    "detection";
    "false-accusation";
    "write-spacing";
    "auditor-lag";
    "breaker";
    "recovery";
    "quarantine";
  ]

let rule_for_invariant = function
  | "detection" -> Some "detection"
  | "no-false-accusation" -> Some "false-accusation"
  | "staleness" -> Some "staleness"
  | "write-spacing" -> Some "write-spacing"
  | "availability" -> Some "availability"
  | "recovery-convergence" -> Some "recovery"
  | _ -> None

type alert = {
  rule : string;
  raised_at : float;
  threshold : float;
  mutable peak : float;
  mutable cleared_at : float option;
  mutable detail : string;
}

type rule_state = {
  mutable active : alert option;
  mutable history : alert list; (* newest first, includes active *)
  mutable last_violation : float;
}

type t = {
  cfg : config;
  trace : Trace.t option;
  rules : (string, rule_state) Hashtbl.t;
  commits : (int, float) Hashtbl.t; (* version -> latest commit time *)
  mutable committed_max : int;
  last_commit_of_master : (int, float) Hashtbl.t;
  pending_apply : (int, float) Hashtbl.t; (* version -> latest commit time *)
  mutable applied_max : int;
  pending_audit : (int, float) Hashtbl.t;
  mutable audited_max : int;
  outstanding : (int, float * string) Hashtbl.t; (* request -> issue time, mode *)
  liars : (int, float) Hashtbl.t; (* slave -> earliest unaccused lie *)
  lied_ever : (int, unit) Hashtbl.t;
  pending_recovery : (int, int * float) Hashtbl.t; (* slave -> target version, rejoin *)
  latency_roll : Rolling.t;
  avail_roll : Rolling.t;
  breaker_roll : Rolling.t;
  mutable now : float;
  mutable finalized : bool;
}

let create ?trace ~config:cfg () =
  let rules = Hashtbl.create 16 in
  List.iter
    (fun name ->
      Hashtbl.add rules name { active = None; history = []; last_violation = neg_infinity })
    rule_names;
  {
    cfg;
    trace;
    rules;
    commits = Hashtbl.create 64;
    committed_max = 0;
    last_commit_of_master = Hashtbl.create 8;
    pending_apply = Hashtbl.create 16;
    applied_max = 0;
    pending_audit = Hashtbl.create 16;
    audited_max = 0;
    outstanding = Hashtbl.create 64;
    liars = Hashtbl.create 8;
    lied_ever = Hashtbl.create 8;
    pending_recovery = Hashtbl.create 8;
    latency_roll = Rolling.create ~window:cfg.window ();
    avail_roll = Rolling.create ~window:cfg.window ();
    breaker_roll = Rolling.create ~window:cfg.window ();
    now = 0.0;
    finalized = false;
  }

(* [tick] looks rules up a dozen times per event: [find] allocates no
   option. *)
let rule t name =
  match Hashtbl.find t.rules name with
  | rs -> rs
  | exception Not_found -> invalid_arg ("Slo: unknown rule " ^ name)

let emit t event =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:t.now ~source:"slo" event
  | None -> ()

let raise_alert t name ~value ~threshold ~detail =
  let rs = rule t name in
  rs.last_violation <- t.now;
  match rs.active with
  | Some a ->
    if value > a.peak then begin
      a.peak <- value;
      a.detail <- detail
    end
  | None ->
    let a =
      { rule = name; raised_at = t.now; threshold; peak = value; cleared_at = None; detail }
    in
    rs.active <- Some a;
    rs.history <- a :: rs.history;
    emit t (Event.Alert_raised { rule = name; value; threshold })

let clear_alert t name =
  let rs = rule t name in
  match rs.active with
  | None -> ()
  | Some a ->
    a.cleared_at <- Some t.now;
    rs.active <- None;
    emit t (Event.Alert_cleared { rule = name; duration = t.now -. a.raised_at })

(* A pulse rule has no standing condition: it decays once the window
   has been quiet. *)
let decay_pulse t name =
  let rs = rule t name in
  match rs.active with
  | Some _ when t.now -. rs.last_violation > t.cfg.window -> clear_alert t name
  | _ -> ()

let max_overdue tbl ~now ~deadline_of =
  if Hashtbl.length tbl = 0 then None
  else
    Hashtbl.fold
      (fun k v acc ->
        let over = now -. deadline_of k v in
        if over > 0.0 then match acc with
          | Some (_, o) when o >= over -> acc
          | _ -> Some (k, over)
        else acc)
      tbl None

(* Forget the versions up to [version].  The survivors keep their
   bucket order, so [max_overdue] breaks ties among them as before. *)
let drop_through tbl version =
  Hashtbl.filter_map_inplace (fun v commit -> if v <= version then None else Some commit) tbl

let slave_of_node node =
  match String.length node > 6 && String.sub node 0 6 = "slave-" with
  | true -> int_of_string_opt (String.sub node 6 (String.length node - 6))
  | false -> None

let handle t event =
  let cfg = t.cfg in
  let now = t.now in
  match event with
  | Event.Write_committed { master; version } ->
    (match Hashtbl.find_opt t.last_commit_of_master master with
    | Some prev when now -. prev < cfg.max_latency -. eps ->
      raise_alert t "write-spacing" ~value:(now -. prev) ~threshold:cfg.max_latency
        ~detail:(Printf.sprintf "master %d committed %.3fs after its previous write" master (now -. prev))
    | _ -> ());
    Hashtbl.replace t.last_commit_of_master master now;
    (match Hashtbl.find_opt t.commits version with
    | Some prev when prev >= now -> ()
    | _ -> Hashtbl.replace t.commits version now);
    if version > t.committed_max then t.committed_max <- version;
    if version > t.applied_max then begin
      match Hashtbl.find_opt t.pending_apply version with
      | Some prev when prev >= now -> ()
      | _ -> Hashtbl.replace t.pending_apply version now
    end;
    if cfg.audit_enabled && version > t.audited_max then begin
      match Hashtbl.find_opt t.pending_audit version with
      | Some prev when prev >= now -> ()
      | _ -> Hashtbl.replace t.pending_audit version now
    end
  | Event.State_update_applied { to_version; _ } ->
    if to_version > t.applied_max then begin
      t.applied_max <- to_version;
      drop_through t.pending_apply to_version
    end
  | Event.Audit_advance { version } ->
    if version > t.audited_max then t.audited_max <- version;
    drop_through t.pending_audit version
  | Event.Audit_overload { backlog } ->
    raise_alert t "auditor-lag" ~value:(float_of_int backlog)
      ~threshold:(float_of_int backlog)
      ~detail:(Printf.sprintf "auditor shedding load at backlog %d" backlog)
  | Event.Read_issued { request; mode; _ } when request >= 0 ->
    Hashtbl.replace t.outstanding request (now, mode)
  | Event.Read_answered { request; outcome; latency; _ } ->
    let mode =
      match Hashtbl.find_opt t.outstanding request with
      | Some (_, mode) -> mode
      | None -> "single"
    in
    Hashtbl.remove t.outstanding request;
    Rolling.record t.latency_roll ~time:now latency;
    let bad = outcome = "gave-up" || (outcome = "by-master" && mode <> "sensitive") in
    Rolling.record t.avail_roll ~time:now (if bad then 1.0 else 0.0)
  | Event.Pledge_signed { slave; lied; _ } ->
    if lied then begin
      Hashtbl.replace t.lied_ever slave ();
      if not (Hashtbl.mem t.liars slave) then Hashtbl.replace t.liars slave now
    end
  | Event.Pledge_verified { ok = true; version; _ } -> begin
    match Hashtbl.find_opt t.commits (version + 1) with
    | Some commit when now > commit +. cfg.max_latency +. eps ->
      raise_alert t "staleness"
        ~value:(now -. commit -. cfg.max_latency)
        ~threshold:cfg.max_latency
        ~detail:
          (Printf.sprintf "pledge for version %d accepted %.3fs past the freshness bound"
             version (now -. commit -. cfg.max_latency))
    | _ -> ()
  end
  | Event.Audit_conviction { slave; _ }
  | Event.Slave_excluded { slave; _ }
  | Event.Double_check { slave; outcome = Event.Mismatch; _ } ->
    if not (Hashtbl.mem t.lied_ever slave) then
      raise_alert t "false-accusation" ~value:1.0 ~threshold:0.0
        ~detail:(Printf.sprintf "slave %d accused without a recorded lie" slave);
    Hashtbl.remove t.liars slave;
    Hashtbl.remove t.pending_recovery slave
  | Event.Node_recovered { node; version } -> begin
    match slave_of_node node with
    | Some slave when t.committed_max > version ->
      Hashtbl.replace t.pending_recovery slave (t.committed_max, now)
    | _ -> ()
  end
  | Event.Node_crashed { node } | Event.Partition { target = node; up = false } -> begin
    (* The disturbance restarts the convergence clock; the invariant
       excuses these windows too. *)
    match slave_of_node node with
    | Some slave -> Hashtbl.remove t.pending_recovery slave
    | None -> ()
  end
  | Event.Breaker_opened _ -> Rolling.record t.breaker_roll ~time:now 1.0
  | Event.Slave_quarantined { slave; score; until } ->
    raise_alert t "quarantine" ~value:score ~threshold:Config.quarantine_threshold
      ~detail:
        (Printf.sprintf "slave %d on audit probation until %.3f (suspicion %.2f)" slave
           until score)
  | _ -> ()

(* State_update_applied above only tracks the global max; per-slave
   convergence for the recovery rule is resolved here. *)
let handle_recovery_progress t event =
  match event with
  | Event.State_update_applied { slave; to_version; _ } -> begin
    match Hashtbl.find_opt t.pending_recovery slave with
    | Some (target, _) when to_version >= target -> Hashtbl.remove t.pending_recovery slave
    | _ -> ()
  end
  | _ -> ()

let tick t =
  let cfg = t.cfg in
  let now = t.now in
  Rolling.advance t.latency_roll ~now;
  Rolling.advance t.avail_roll ~now;
  Rolling.advance t.breaker_roll ~now;
  (* read-latency: rolling p99 against the freshness bound *)
  (match Rolling.percentile t.latency_roll 99.0 with
  | Some p99 when Rolling.count t.latency_roll >= latency_min_samples ->
    if p99 > cfg.max_latency then
      raise_alert t "read-latency" ~value:p99 ~threshold:cfg.max_latency
        ~detail:(Printf.sprintf "rolling p99 read latency %.3fs" p99)
    else if p99 < 0.8 *. cfg.max_latency then clear_alert t "read-latency"
  | _ -> if (rule t "read-latency").active <> None then clear_alert t "read-latency");
  (* availability: burn rate over completions + hung-read deadline *)
  let hung = max_overdue t.outstanding ~now ~deadline_of:(fun _ (t0, _) -> t0 +. cfg.read_deadline) in
  (match hung with
  | Some (request, over) ->
    raise_alert t "availability" ~value:over ~threshold:cfg.read_deadline
      ~detail:(Printf.sprintf "read %d unanswered %.1fs past the retry budget" request over)
  | None -> ());
  let burn =
    if Rolling.count t.avail_roll >= avail_min_samples then
      match Rolling.mean t.avail_roll with
      | Some rate -> Some (rate /. unavail_budget)
      | None -> None
    else None
  in
  (match burn with
  | Some b when b >= burn_raise ->
    raise_alert t "availability" ~value:b ~threshold:burn_raise
      ~detail:(Printf.sprintf "unavailability burn rate %.2fx the error budget" b)
  | _ -> ());
  (match (rule t "availability").active with
  | Some _
    when hung = None
         && (match burn with Some b -> b < burn_clear | None -> true) ->
    clear_alert t "availability"
  | _ -> ());
  (* detection: unaccused lies past the audit budget *)
  (match max_overdue t.liars ~now ~deadline_of:(fun _ t0 -> t0 +. cfg.detection_budget) with
  | Some (slave, over) ->
    raise_alert t "detection" ~value:over ~threshold:cfg.detection_budget
      ~detail:(Printf.sprintf "slave %d lied %.1fs past the detection budget, unaccused" slave over)
  | None -> if (rule t "detection").active <> None then clear_alert t "detection");
  (* staleness (replica apply lag) *)
  let apply_overdue =
    max_overdue t.pending_apply ~now ~deadline_of:(fun _ commit -> commit +. cfg.max_latency +. eps)
  in
  (match apply_overdue with
  | Some (version, over) ->
    raise_alert t "staleness" ~value:over ~threshold:cfg.max_latency
      ~detail:(Printf.sprintf "version %d unapplied by every slave %.3fs past the bound" version over)
  | None -> ());
  (match (rule t "staleness").active with
  | Some _ when apply_overdue = None && now -. (rule t "staleness").last_violation > cfg.window ->
    clear_alert t "staleness"
  | _ -> ());
  (* auditor-lag *)
  if cfg.audit_enabled then begin
    let audit_overdue =
      max_overdue t.pending_audit ~now ~deadline_of:(fun _ commit -> commit +. cfg.audit_deadline)
    in
    (match audit_overdue with
    | Some (version, over) ->
      raise_alert t "auditor-lag" ~value:over ~threshold:cfg.audit_deadline
        ~detail:(Printf.sprintf "audit store %.1fs late advancing past version %d" over (version - 1))
    | None -> ());
    match (rule t "auditor-lag").active with
    | Some _
      when audit_overdue = None && now -. (rule t "auditor-lag").last_violation > cfg.window ->
      clear_alert t "auditor-lag"
    | _ -> ()
  end;
  (* recovery convergence *)
  (match
     max_overdue t.pending_recovery ~now
       ~deadline_of:(fun _ (_, t0) -> t0 +. cfg.max_latency +. eps)
   with
  | Some (slave, over) ->
    raise_alert t "recovery" ~value:over ~threshold:cfg.max_latency
      ~detail:(Printf.sprintf "slave %d rejoined but lagging %.3fs past the bound" slave over)
  | None -> if (rule t "recovery").active <> None then clear_alert t "recovery");
  (* breaker-open rate *)
  (let opens = Rolling.count t.breaker_roll in
   if opens >= breaker_rate then
     raise_alert t "breaker" ~value:(float_of_int opens)
       ~threshold:(float_of_int breaker_rate)
       ~detail:(Printf.sprintf "%d breaker opens in the last %.0fs" opens cfg.window)
   else if (rule t "breaker").active <> None then clear_alert t "breaker");
  (* pulse-only rules decay once quiet *)
  decay_pulse t "write-spacing";
  decay_pulse t "false-accusation";
  decay_pulse t "quarantine"

let observe t (r : Trace.record) =
  if not t.finalized then begin
    match r.event with
    | Event.Alert_raised _ | Event.Alert_cleared _ -> ()
    | event ->
      if r.time > t.now then t.now <- r.time;
      handle t event;
      handle_recovery_progress t event;
      tick t
  end

let finalize t ~now =
  if not t.finalized then begin
    if now > t.now then t.now <- now;
    tick t;
    (* Any lie still unaccused at end of run is an eventual-detection
       failure regardless of how fresh it is: the auditor will never
       get another chance. *)
    Hashtbl.iter
      (fun slave t0 ->
        raise_alert t "detection" ~value:(t.now -. t0) ~threshold:t.cfg.detection_budget
          ~detail:(Printf.sprintf "slave %d lied at %.3f and was never accused" slave t0))
      t.liars;
    t.finalized <- true
  end

let alerts t =
  Hashtbl.fold (fun _ rs acc -> rs.history @ acc) t.rules []
  |> List.sort (fun a b -> compare (a.raised_at, a.rule) (b.raised_at, b.rule))

let active t =
  Hashtbl.fold (fun _ rs acc -> match rs.active with Some a -> a :: acc | None -> acc) t.rules []
  |> List.sort (fun a b -> compare (a.raised_at, a.rule) (b.raised_at, b.rule))

let raised_rules t =
  List.sort_uniq String.compare (List.map (fun a -> a.rule) (alerts t))

let was_raised t name = List.exists (fun a -> a.rule = name) (alerts t)

let json_of_alert a =
  Json.Obj
    [
      ("rule", Json.Str a.rule);
      ("raised_at", Json.Num a.raised_at);
      ("cleared_at", (match a.cleared_at with Some x -> Json.Num x | None -> Json.Null));
      ("peak", Json.Num a.peak);
      ("threshold", Json.Num a.threshold);
      ("detail", Json.Str a.detail);
    ]

let pp_alert fmt a =
  Format.fprintf fmt "[%10.4f] %-16s peak %.3f (threshold %.3f)%s  %s" a.raised_at a.rule
    a.peak a.threshold
    (match a.cleared_at with
    | Some c -> Printf.sprintf "  cleared %.4f" c
    | None -> "  STILL ACTIVE")
    a.detail
