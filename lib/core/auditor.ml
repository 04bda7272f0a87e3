module Sim = Secrep_sim.Sim
module Work_queue = Secrep_sim.Work_queue
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Timeseries = Secrep_sim.Timeseries
module Prng = Secrep_crypto.Prng
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Canonical = Secrep_store.Canonical
module Audit_index = Secrep_store.Audit_index

(* Per-slave suspicion: an exponentially-decayed accumulator of weak
   signals (late pledges, nonce rejects, double-check mismatches,
   convictions).  [score] is the value as of [score_at]; readers decay
   it lazily.  None of this is proof — it only biases where the audit
   budget goes, and (past the threshold) triggers probation. *)
type suspicion = {
  mutable score : float;
  mutable score_at : float;
  mutable quarantined_until : float;
  mutable quarantine_count : int;
}

type t = {
  sim : Sim.t;
  config : Config.t;
  stats : Stats.t;
  rng : Prng.t;
  trace : Trace.t option;
  spans : Span.t option;
  store : Store.t; (* lags the masters *)
  memo : Audit_core.memo; (* verified batch roots + re-execution memo *)
  work : Work_queue.t;
  slave_public : int -> Secrep_crypto.Sig_scheme.public option;
  report : Pledge.t -> unit;
  pending : (int, Pledge.t Queue.t) Hashtbl.t; (* version -> queue *)
  mutable committed : (Oplog.entry * float) list; (* future writes, oldest first *)
  mutable pumping : bool; (* one audit in flight on the work queue *)
  mutable audited : int;
  mutable caught : int;
  mutable late : int;
  mutable overload_drops : int;
  backlog_series : Timeseries.t;
  mutable backlog : int;
  suspicion : (int, suspicion) Hashtbl.t; (* slave id -> record *)
  mutable quarantines : int;
}

let emit t event =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Sim.now t.sim) ~source:"auditor" event
  | None -> ()

let span t ~start ~duration name =
  match t.spans with
  | Some spans -> Span.record spans ~source:"auditor" ~start ~duration name
  | None -> ()

let create sim ~config ~stats ~rng ~slave_public ~report ?trace:trace_buf ?spans ()
    =
  let t =
    {
      sim;
      config;
      stats;
      rng;
      trace = trace_buf;
      spans;
      store = Store.create ();
      memo = Audit_core.memo ~capacity:config.Config.audit_cache_capacity ();
      work = Work_queue.create sim ();
      slave_public;
      report;
      pending = Hashtbl.create 16;
      committed = [];
      pumping = false;
      audited = 0;
      caught = 0;
      late = 0;
      overload_drops = 0;
      backlog_series = Timeseries.create ~name:"auditor.backlog" ();
      backlog = 0;
      suspicion = Hashtbl.create 16;
      quarantines = 0;
    }
  in
  t

let audit_version t = Store.version t.store
let backlog t = t.backlog
let audited t = t.audited
let caught t = t.caught
let late_pledges t = t.late
let overload_drops t = t.overload_drops
let cache t = t.memo.Audit_core.index
let work t = t.work
let backlog_series t = t.backlog_series

let note_backlog t =
  Timeseries.record t.backlog_series ~time:(Sim.now t.sim) (float_of_int t.backlog)

(* -- suspicion scores (adaptive auditing) ---------------------------- *)

let suspicion_for t ~slave =
  match Hashtbl.find_opt t.suspicion slave with
  | Some s -> s
  | None ->
    let s =
      { score = 0.0; score_at = Sim.now t.sim; quarantined_until = 0.0;
        quarantine_count = 0 }
    in
    Hashtbl.add t.suspicion slave s;
    s

let decayed_score t (s : suspicion) =
  let now = Sim.now t.sim in
  if s.score = 0.0 then 0.0
  else s.score *. exp (-.(now -. s.score_at) /. t.config.Config.suspicion_tau)

let suspicion_score t ~slave =
  match Hashtbl.find_opt t.suspicion slave with
  | Some s -> decayed_score t s
  | None -> 0.0

let is_quarantined t ~slave =
  match Hashtbl.find_opt t.suspicion slave with
  | Some s -> Sim.now t.sim < s.quarantined_until
  | None -> false

let quarantines t = t.quarantines

let note_suspicion t ~slave ~amount =
  let s = suspicion_for t ~slave in
  let now = Sim.now t.sim in
  s.score <- decayed_score t s +. amount;
  s.score_at <- now;
  Stats.incr t.stats "auditor.suspicion_bumps";
  (* Probation only exists in the adaptive regime: with the flag off
     the score is tracked (cheap, invisible) but never acted on, so the
     seed event stream is untouched. *)
  if
    t.config.Config.audit_adaptive
    && s.score >= t.config.Config.quarantine_threshold
    && now >= s.quarantined_until
  then begin
    s.quarantined_until <- now +. t.config.Config.quarantine_duration;
    s.quarantine_count <- s.quarantine_count + 1;
    t.quarantines <- t.quarantines + 1;
    Stats.incr t.stats "auditor.quarantines";
    emit t
      (Event.Slave_quarantined
         { slave; score = s.score; until = s.quarantined_until })
  end

(* Suspicion-weighted sampling probability for one pledge, normalized
   against the mean score over all tracked slaves so the expected audit
   volume stays near the uniform budget ([audit_fraction]).  Quarantined
   slaves are audited at 100% (probation); everyone else is clamped to
   no less than [suspicion_floor *. audit_fraction] so an attacker that
   keeps its own score clean is still sampled.  A full budget leaves
   nothing to redistribute: every read is re-executed, as the paper
   requires, whatever the scores. *)
let adaptive_probability t ~slave =
  if is_quarantined t ~slave || t.config.Config.audit_fraction >= 1.0 then 1.0
  else begin
    let base = t.config.Config.audit_fraction in
    let total, n =
      Hashtbl.fold (fun _ s (tot, n) -> (tot +. decayed_score t s, n + 1))
        t.suspicion (0.0, 0)
    in
    let mean = if n = 0 then 0.0 else total /. float_of_int n in
    let mine = suspicion_score t ~slave in
    let p = base *. (1.0 +. mine) /. (1.0 +. mean) in
    Float.min 1.0 (Float.max (t.config.Config.suspicion_floor *. base) p)
  end

let queue_for t version =
  match Hashtbl.find_opt t.pending version with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.pending version q;
    q

(* May the auditor advance past its current version?  Only when the
   next committed write is old enough that no conforming client can
   still accept (and thus still forward) a read for the current
   version. *)
let rec pump t =
  if not t.pumping then begin
    let current = audit_version t in
    let q = queue_for t current in
    if not (Queue.is_empty q) then begin
      let pledge = Queue.pop q in
      t.pumping <- true;
      audit_one t pledge
    end
    else begin
      match t.committed with
      | (entry, commit_time) :: rest
        when entry.Oplog.version = current + 1
             && Sim.now t.sim
                >= commit_time +. t.config.Config.max_latency
                   +. t.config.Config.audit_lag_slack ->
        Store.apply_entry t.store entry;
        t.committed <- rest;
        Hashtbl.remove t.pending current;
        Audit_index.clear t.memo.Audit_core.index;
        emit t (Event.Audit_advance { version = current + 1 });
        pump t
      | (entry, commit_time) :: _ when entry.Oplog.version = current + 1 ->
        (* Come back once the lag slack has elapsed. *)
        let wake =
          commit_time +. t.config.Config.max_latency +. t.config.Config.audit_lag_slack
        in
        ignore
          (Sim.schedule t.sim ~delay:(Float.max 0.0 (wake -. Sim.now t.sim) +. 1e-9)
             (fun () -> pump t))
      | _ -> () (* nothing to do; new pledges or commits will re-pump *)
    end
  end

and audit_one t pledge =
  let submitted = Sim.now t.sim in
  let finish verdict cost =
    Work_queue.submit t.work ~cost (fun () ->
        t.audited <- t.audited + 1;
        t.backlog <- t.backlog - 1;
        Stats.incr t.stats "auditor.audited";
        note_backlog t;
        (* Queueing plus re-execution: the span covers the pledge's
           whole stay on the audit work queue. *)
        span t ~start:submitted ~duration:(Sim.now t.sim -. submitted) "audit";
        (match verdict with
        | Audit_core.Caught ->
          t.caught <- t.caught + 1;
          Stats.incr t.stats "auditor.caught";
          note_suspicion t ~slave:pledge.Pledge.slave_id ~amount:2.0;
          emit t
            (Event.Audit_conviction
               { slave = pledge.Pledge.slave_id; version = Pledge.version pledge });
          t.report pledge
        | Audit_core.Bad_signature -> Stats.incr t.stats "auditor.bad_signatures"
        | Audit_core.Ok_pledge -> ());
        t.pumping <- false;
        pump t)
  in
  (* The pledge is for the version under audit, which [t.store] holds. *)
  let reexec ~version:_ query =
    match Query_eval.execute t.store query with
    | Error _ -> None
    | Ok { result; scanned } -> Some (Canonical.result_digest result, scanned)
  in
  let j = Audit_core.audit_pledge t.memo ~slave_public:t.slave_public ~reexec pledge in
  let sig_cost =
    match j.Audit_core.signature with
    | Audit_core.Full_verify -> t.config.Config.verify_cost
    | Audit_core.Root_verify ->
      Stats.incr t.stats "auditor.root_verifications";
      t.config.Config.verify_cost
    | Audit_core.Root_cached ->
      Stats.incr t.stats "auditor.root_sig_hits";
      1e-6
  in
  match j.Audit_core.query with
  | None | Some Audit_core.Unanswerable -> finish j.Audit_core.verdict sig_cost
  | Some Audit_core.Memo_hit ->
    (* Memo hit: just compare digests — the "query optimization
       mechanisms (cache results in the simplest case)" of §3.4. *)
    Stats.incr t.stats "auditor.cache_hits";
    finish j.Audit_core.verdict (sig_cost +. 1e-6)
  | Some (Audit_core.Reexecuted scanned) ->
    Stats.incr t.stats "auditor.reexecutions";
    finish j.Audit_core.verdict
      (sig_cost
      +. Query_eval.cost_seconds ~scanned ~cost_class:(Query.cost_class pledge.Pledge.query)
           ~per_doc:t.config.Config.per_doc_cost)

let submit_pledge t pledge =
  let version = Pledge.version pledge in
  if version < audit_version t then begin
    t.late <- t.late + 1;
    Stats.incr t.stats "auditor.late_pledges";
    (* Conforming clients cannot be late (the lag slack guarantees it),
       so a late pledge is a weak signal that somebody is replaying or
       stalling — worth a suspicion bump, never a conviction. *)
    note_suspicion t ~slave:pledge.Pledge.slave_id ~amount:0.5
  end
  else if
    (if t.config.Config.audit_adaptive then begin
       let p = adaptive_probability t ~slave:pledge.Pledge.slave_id in
       p < 1.0 && not (Prng.bernoulli t.rng p)
     end
     else
       t.config.Config.audit_fraction < 1.0
       && not (Prng.bernoulli t.rng t.config.Config.audit_fraction))
  then Stats.incr t.stats "auditor.sampled_out"
  else if t.backlog >= t.config.Config.auditor_queue_capacity then begin
    (* Bounded intake: during outages it is better to shed load (and
       count it) than to queue without bound — dropped pledges only
       cost detection coverage, never correctness. *)
    t.overload_drops <- t.overload_drops + 1;
    Stats.incr t.stats "auditor.overload_drops";
    emit t (Event.Audit_overload { backlog = t.backlog })
  end
  else begin
    Queue.push pledge (queue_for t version);
    t.backlog <- t.backlog + 1;
    Stats.incr t.stats "auditor.pledges_received";
    note_backlog t;
    pump t
  end

let on_committed_write t ~entry ~commit_time =
  (* Keep the future-write list ordered by version; duplicates (same
     commit observed from several masters) are dropped. *)
  let version = entry.Oplog.version in
  if version > audit_version t
     && not (List.exists (fun (e, _) -> e.Oplog.version = version) t.committed)
  then begin
    t.committed <-
      List.sort (fun (a, _) (b, _) -> Int.compare a.Oplog.version b.Oplog.version)
        ((entry, commit_time) :: t.committed);
    pump t
  end
