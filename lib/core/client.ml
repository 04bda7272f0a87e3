module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Prng = Secrep_crypto.Prng
module Query = Secrep_store.Query
module Query_result = Secrep_store.Query_result
module Canonical = Secrep_store.Canonical

type read_mode = Single | Quorum of int

type read_report = {
  query : Query.t;
  request : int;
  outcome :
    [ `Accepted of Query_result.t | `Served_by_master of Query_result.t | `Gave_up ];
  version : int;
  latency : float;
  retries : int;
  double_checked : bool;
  caught_slave : int option;
  served_by : int option;
}

type env = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> unit;
  slave_id : unit -> int;
  peers : unit -> int list;
  public_of_slave : int -> Secrep_crypto.Sig_scheme.public;
  master_public : unit -> Secrep_crypto.Sig_scheme.public;
  send_read :
    slave_id:int ->
    request:int ->
    query:Query.t ->
    reply:(Slave.read_reply option -> unit) ->
    unit;
  send_double_check :
    query:Query.t -> reply:(Master.double_check_reply -> unit) -> unit;
  send_sensitive :
    query:Query.t -> reply:((Query_result.t * int) option -> unit) -> unit;
  send_write : op:Secrep_store.Oplog.op -> reply:(Master.write_ack -> unit) -> unit;
  forward_pledge : Pledge.t -> unit;
  report_proof : Pledge.t -> unit;
  note_nonce_reject : slave:int -> unit;
  note_stale_reject : slave:int -> unit;
  reconnect : avoid:int list -> unit;
}

(* Per-slave health record.  [open_until] is the quarantine deadline;
   once it passes the breaker is half-open: the slave may be probed
   again, and the first success closes the breaker. *)
type breaker = {
  mutable consecutive_timeouts : int;
  mutable open_until : float;
  mutable is_open : bool;
}

type t = {
  id : int;
  rng : Prng.t;
  config : Config.t;
  env : env;
  stats : Stats.t;
  trace : Trace.t;
  spans : Span.t;
  max_latency : float; (* effective freshness bound for this client *)
  mutable reads_issued : int;
  (* §3.5: on delayed discovery "the harm may be undone, by rolling
     back the client to the state before that particular read".  We
     keep a bounded log of accepted reads by serving slave so an
     exclusion can identify (and count) the reads to roll back. *)
  accepted_log : (int * float) Queue.t; (* slave_id, accept time; oldest first *)
  mutable tainted_reads : int;
  breakers : (int, breaker) Hashtbl.t;
  mutable degraded_served : int;
}

let create ~id ~rng ~config ~env ~stats ~trace ~spans ?max_latency_override () =
  let max_latency =
    match max_latency_override with
    | Some m ->
      if m <= 0.0 then invalid_arg "Client.create: max_latency_override must be positive";
      m
    | None -> config.Config.max_latency
  in
  {
    id;
    rng;
    config;
    env;
    stats;
    trace;
    spans;
    max_latency;
    reads_issued = 0;
    accepted_log = Queue.create ();
    tainted_reads = 0;
    breakers = Hashtbl.create 8;
    degraded_served = 0;
  }

let source t = Printf.sprintf "client-%d" t.id

let emit t event = Trace.emit t.trace ~time:(t.env.now ()) ~source:(source t) event

let id t = t.id
let reads_issued t = t.reads_issued
let degraded_reads t = t.degraded_served

(* How long to wait for a slave before assuming it dropped the request.
   A factor of 2x the freshness bound is generous: an answer that slow
   would be rejected as stale anyway (§3.1). *)
let read_timeout t = Config.read_timeout_factor *. t.max_latency

(* -- per-slave health and circuit breakers --------------------------- *)

(* Consecutive timeouts against one slave before its breaker opens and
   reads route around it. *)
let breaker_threshold = 3

let breaker_for t slave_id =
  match Hashtbl.find_opt t.breakers slave_id with
  | Some b -> b
  | None ->
    let b = { consecutive_timeouts = 0; open_until = neg_infinity; is_open = false } in
    Hashtbl.add t.breakers slave_id b;
    b

let is_quarantined t ~slave_id =
  match Hashtbl.find_opt t.breakers slave_id with
  | Some b -> b.is_open && t.env.now () < b.open_until
  | None -> false

let quarantined t =
  let now = t.env.now () in
  Hashtbl.fold
    (fun id b acc -> if b.is_open && now < b.open_until then id :: acc else acc)
    t.breakers []

(* One [client.read_timeouts] per target slave that never replied, or
   one when the missing answer is the master's (a double-check after
   every target replied, or a master read: [slave_id < 0]).  Only the
   former charge a slave's circuit breaker. *)
let note_timeout t ~slave_id =
  Stats.incr t.stats "client.read_timeouts";
  if slave_id >= 0 then begin
    let b = breaker_for t slave_id in
    b.consecutive_timeouts <- b.consecutive_timeouts + 1;
    if b.consecutive_timeouts >= breaker_threshold then begin
      if not b.is_open then begin
        Stats.incr t.stats "client.breaker_opened";
        emit t (Event.Breaker_opened { client = t.id; slave = slave_id })
      end;
      b.is_open <- true;
      b.open_until <- t.env.now () +. t.config.Config.breaker_cooldown
    end
  end

let note_slave_success t ~slave_id =
  if slave_id >= 0 then begin
    let b = breaker_for t slave_id in
    if b.is_open then begin
      b.is_open <- false;
      Stats.incr t.stats "client.breaker_closed";
      emit t (Event.Breaker_closed { client = t.id; slave = slave_id })
    end;
    b.consecutive_timeouts <- 0;
    b.open_until <- neg_infinity
  end

(* Exponential backoff with deterministic jitter: retry [n] waits in
   [[d*(1-jitter), d]] where [d = min(cap, base * factor^n)], sampled
   from the client's seeded PRNG so runs replay exactly; the jitter
   de-synchronises retry storms. *)
let retry_backoff_base = 0.05
let retry_backoff_factor = 2.0
let retry_jitter = 0.5

let backoff_delay t ~retries =
  let d =
    Float.min Config.retry_backoff_cap
      (retry_backoff_base *. (retry_backoff_factor ** float_of_int retries))
  in
  (d *. (1.0 -. retry_jitter)) +. (d *. retry_jitter *. Prng.float t.rng)

let give_up t ~query ~request ~start ~retries ~double_checked ~caught =
  Stats.incr t.stats "client.reads_given_up";
  let latency = t.env.now () -. start in
  emit t
    (Event.Read_answered
       { client = t.id; request; slave = -1; outcome = "gave-up"; version = -1; latency });
  {
    query;
    request;
    outcome = `Gave_up;
    version = -1;
    latency;
    retries;
    double_checked;
    caught_slave = caught;
    served_by = None;
  }

(* Only reads accepted within the audit horizon can still turn out to
   be wrong; older entries are pruned. *)
let log_window t = 20.0 *. t.config.Config.max_latency

let prune_log t ~now =
  let rec loop () =
    match Queue.peek_opt t.accepted_log with
    | Some (_, ts) when now -. ts > log_window t ->
      ignore (Queue.pop t.accepted_log);
      loop ()
    | _ -> ()
  in
  loop ()

let note_accepted t ~slave_id =
  let now = t.env.now () in
  prune_log t ~now;
  Queue.add (slave_id, now) t.accepted_log

let on_slave_excluded t ~slave_id =
  prune_log t ~now:(t.env.now ());
  let kept = Queue.create () in
  let n = ref 0 in
  Queue.iter
    (fun ((s, _) as entry) -> if s = slave_id then incr n else Queue.add entry kept)
    t.accepted_log;
  Queue.clear t.accepted_log;
  Queue.transfer kept t.accepted_log;
  let n = !n in
  if n > 0 then begin
    t.tainted_reads <- t.tainted_reads + n;
    Stats.add t.stats "client.reads_tainted" n
  end;
  n

let tainted_reads t = t.tainted_reads

let accept t ~query ~request ~start ~retries ~double_checked ~caught
    { Slave.result; pledge } =
  let served_by = pledge.Pledge.slave_id and version = Pledge.version pledge in
  Stats.incr t.stats "client.reads_accepted";
  note_accepted t ~slave_id:served_by;
  note_slave_success t ~slave_id:served_by;
  let latency = t.env.now () -. start in
  emit t
    (Event.Read_answered
       { client = t.id; request; slave = served_by; outcome = "accepted"; version; latency });
  {
    query;
    request;
    outcome = `Accepted result;
    version;
    latency;
    retries;
    double_checked;
    caught_slave = caught;
    served_by = Some served_by;
  }

(* A master read must still time out: during a master crash or a
   client<->master partition the reply never arrives, and the read has
   to be reported failed rather than lost. *)
let master_read t query ~request ~start ~retries ~caught ~on_done =
  let settled = ref false in
  t.env.schedule ~delay:(read_timeout t) (fun () ->
      if not !settled then begin
        settled := true;
        note_timeout t ~slave_id:(-1);
        on_done (give_up t ~query ~request ~start ~retries ~double_checked:false ~caught)
      end);
  t.env.send_sensitive ~query ~reply:(fun reply ->
      if not !settled then begin
        settled := true;
        match reply with
        | Some (result, version) ->
          let latency = t.env.now () -. start in
          emit t
            (Event.Read_answered
               {
                 client = t.id;
                 request;
                 slave = -1;
                 outcome = "by-master";
                 version;
                 latency;
               });
          on_done
            {
              query;
              request;
              outcome = `Served_by_master result;
              version;
              latency;
              retries;
              double_checked = false;
              caught_slave = caught;
              served_by = None;
            }
        | None ->
          on_done (give_up t ~query ~request ~start ~retries ~double_checked:false ~caught)
      end)

let sensitive_read t query ~request ~on_done =
  Stats.incr t.stats "client.sensitive_reads";
  let start = t.env.now () in
  master_read t query ~request ~start ~retries:0 ~caught:None ~on_done

(* Retry budget exhausted: no slave could serve the read.  With
   [degraded_reads] on, fall back to the trusted master — counted,
   since every such read sacrifices the offloading the slaves exist
   for (§2). *)
let exhausted t ~query ~request ~start ~retries ~caught ~on_done =
  if not t.config.Config.degraded_reads then
    on_done (give_up t ~query ~request ~start ~retries ~double_checked:false ~caught)
  else begin
    Stats.incr t.stats "client.degraded_attempts";
    master_read t query ~request ~start ~retries ~caught ~on_done:(fun report ->
        (match report.outcome with
        | `Served_by_master _ ->
          t.degraded_served <- t.degraded_served + 1;
          Stats.incr t.stats "client.degraded_reads"
        | _ -> ());
        on_done report)
  end

(* -- reads: one slave (§3.2-§3.3) or a quorum of k (§4) ---------------- *)

(* Verify one slave's reply (§3.2).  Verification is instantaneous on
   the simulated clock (the client is not a modelled CPU), so its span
   takes the cost model's verify cost.  A pledge that failed only the
   §3.1 freshness check is [`Stale]: freshness can recover without
   switching slaves. *)
let verify_reply t ~request ~slave_public ~master_public { Slave.result; pledge } =
  Span.record t.spans ~source:(source t) ~start:(t.env.now ())
    ~duration:t.config.Config.verify_cost "verify";
  let slave = pledge.Pledge.slave_id and version = Pledge.version pledge in
  match
    Pledge.verify
      ?expected_nonce:(if t.config.Config.read_nonces then Some request else None)
      ~slave_public ~master_public ~result ~now:(t.env.now ()) ~max_latency:t.max_latency
      pledge
  with
  | Ok () ->
    emit t
      (Event.Pledge_verified { client = t.id; request; slave; version; ok = true; reason = "" });
    `Valid
  | Error reason ->
    Stats.incr t.stats "client.pledge_rejected";
    if String.starts_with ~prefix:"nonce" reason then begin
      Stats.incr t.stats "client.nonce_rejections";
      t.env.note_nonce_reject ~slave
    end;
    emit t (Event.Pledge_verified { client = t.id; request; slave; version; ok = false; reason });
    if String.starts_with ~prefix:"stale" reason then begin
      Stats.incr t.stats "client.stale_rejections";
      t.env.note_stale_reject ~slave;
      `Stale
    end
    else `Rejected

(* The assigned slave plus, for k > 1, the first k - 1 healthy peers
   (§4, second variant).  With fewer healthy peers the assigned slave
   reads alone: a single-slave read is a quorum of one. *)
let targets t ~k =
  let assigned = t.env.slave_id () in
  if k = 1 then [ assigned ]
  else begin
    let peers = List.filter (fun s -> not (is_quarantined t ~slave_id:s)) (t.env.peers ()) in
    if List.length peers < k - 1 then [ assigned ]
    else assigned :: List.filteri (fun i _ -> i < k - 1) peers
  end

let rec attempt t ~query ~request ~k ~dc_probability ~start ~retries ~caught ~on_done =
  if retries > t.config.Config.read_retry_limit then
    exhausted t ~query ~request ~start ~retries ~caught ~on_done
  else begin
    (* Route around a quarantined slave before even sending. *)
    if is_quarantined t ~slave_id:(t.env.slave_id ()) then
      t.env.reconnect ~avoid:(quarantined t);
    let targets = targets t ~k in
    let settled = ref false in
    let replied = ref [] in (* ids of the targets that answered *)
    let valid = ref [] in (* (target, verified reply), newest first *)
    let rejected = ref false in (* a reply was missing or failed for more than staleness *)
    let retry ~reconnect ~caught =
      if not !settled then begin
        settled := true;
        if reconnect then t.env.reconnect ~avoid:(quarantined t);
        Stats.incr t.stats "client.read_retries";
        t.env.schedule ~delay:(backoff_delay t ~retries) (fun () ->
            attempt t ~query ~request ~k ~dc_probability ~start ~retries:(retries + 1) ~caught
              ~on_done)
      end
    in
    let settle ~double_checked ~caught reply =
      settled := true;
      on_done (accept t ~query ~request ~start ~retries ~double_checked ~caught reply)
    in
    (* Arm the timeout for an Omit_result attacker, a dead slave or a
       lost message.  It charges every target that never replied; a
       timeout waiting on the master charges no slave. *)
    t.env.schedule ~delay:(read_timeout t) (fun () ->
        if not !settled then begin
          (match List.filter (fun s -> not (List.mem s !replied)) targets with
          | [] -> note_timeout t ~slave_id:(-1)
          | silent -> List.iter (fun slave_id -> note_timeout t ~slave_id) silent);
          retry ~reconnect:true ~caught
        end);
    let master_public = t.env.master_public () in
    let conclude () =
      match !valid with
      | [] -> retry ~reconnect:!rejected ~caught
      | (_, ({ Slave.pledge; _ } as first)) :: _ as replies ->
        let each_pledge f = List.iter (fun (_, r) -> f r.Slave.pledge) replies in
        (* §3.4: forward the pledges to the auditor *before* accepting. *)
        let forward_and_accept () =
          each_pledge t.env.forward_pledge;
          settle ~double_checked:false ~caught first
        in
        let agrees (_, { Slave.pledge = p; _ }) =
          String.equal p.Pledge.result_digest pledge.Pledge.result_digest
          && Pledge.version p = Pledge.version pledge
        in
        if List.length replies = List.length targets && List.for_all agrees replies then begin
          if not (Prng.bernoulli t.rng dc_probability) then forward_and_accept ()
          else begin
            Stats.incr t.stats "client.double_checks";
            t.env.send_double_check ~query ~reply:(fun dc ->
                if not !settled then begin
                  let dc_event outcome =
                    emit t
                      (Event.Double_check
                         { client = t.id; request; slave = pledge.Pledge.slave_id; outcome })
                  in
                  match dc with
                  | Master.Throttled ->
                    (* Quota enforced; fall back to the audit path. *)
                    dc_event Event.Throttled;
                    forward_and_accept ()
                  | Master.Checked { digest; version } ->
                    if version <> Pledge.version pledge then
                      (* A write landed in between: inconclusive. *)
                      retry ~reconnect:false ~caught
                    else if String.equal digest pledge.Pledge.result_digest then begin
                      Stats.incr t.stats "client.double_checks_passed";
                      dc_event Event.Passed;
                      settle ~double_checked:true ~caught first
                    end
                    else begin
                      (* Immediate discovery (§3.5); with k > 1 the whole
                         quorum colluded and every pledge is proof. *)
                      Stats.incr t.stats "client.immediate_discoveries";
                      dc_event Event.Mismatch;
                      each_pledge t.env.report_proof;
                      retry ~reconnect:true ~caught:(Some pledge.Pledge.slave_id)
                    end
                end)
          end
        end
        else begin
          (* Disagreement: at least one slave lies, so the double-check
             is automatic (§4). *)
          Stats.incr t.stats "client.quorum_mismatches";
          Stats.incr t.stats "client.double_checks";
          t.env.send_double_check ~query ~reply:(fun dc ->
              if not !settled then begin
                match dc with
                | Master.Throttled -> retry ~reconnect:true ~caught
                | Master.Checked { digest; version } ->
                  let honest, liars =
                    List.filter (fun (_, r) -> Pledge.version r.Slave.pledge = version) replies
                    |> List.partition (fun (_, r) ->
                           String.equal r.Slave.pledge.Pledge.result_digest digest)
                  in
                  List.iter
                    (fun (_, r) ->
                      Stats.incr t.stats "client.immediate_discoveries";
                      t.env.report_proof r.Slave.pledge)
                    liars;
                  let caught = match liars with (liar, _) :: _ -> Some liar | [] -> caught in
                  (match honest with
                  | (_, reply) :: _ -> settle ~double_checked:true ~caught reply
                  | [] -> retry ~reconnect:true ~caught)
              end)
        end
    in
    List.iter
      (fun slave_id ->
        t.env.send_read ~slave_id ~request ~query ~reply:(fun reply ->
            if not !settled then begin
              if not (List.mem slave_id !replied) then replied := slave_id :: !replied;
              (* A duplicated delivery replaces the target's earlier reply. *)
              valid := List.remove_assoc slave_id !valid;
              (match reply with
              | None -> rejected := true
              | Some r -> (
                match
                  verify_reply t ~request ~slave_public:(t.env.public_of_slave slave_id)
                    ~master_public r
                with
                | `Valid -> valid := (slave_id, r) :: !valid
                | `Stale -> ()
                | `Rejected -> rejected := true));
              if List.length !replied = List.length targets then conclude ()
            end))
      targets
  end

(* Request ids are globally unique and decodable: client 3's 14th read
   is 3_000_014.  They key the causal lineage the monitor folds over. *)
let request_id_stride = 1_000_000

let read t ?(level = Security_level.Normal) ?(mode = Single) query ~on_done =
  let k = match mode with Single -> 1 | Quorum k -> k in
  if k < 1 then invalid_arg "Client.read: quorum size must be at least 1";
  t.reads_issued <- t.reads_issued + 1;
  let request = (t.id * request_id_stride) + t.reads_issued in
  Stats.incr t.stats "client.reads_issued";
  let base = t.config.Config.double_check_probability in
  let on_master = Security_level.executes_on_master ~base level in
  let mode_tag =
    if on_master then "sensitive" else if k = 1 then "single" else Printf.sprintf "quorum-%d" k
  in
  emit t (Event.Read_issued { client = t.id; request; mode = mode_tag });
  if on_master then sensitive_read t query ~request ~on_done
  else
    attempt t ~query ~request ~k
      ~dc_probability:(Security_level.double_check_probability ~base level)
      ~start:(t.env.now ()) ~retries:0 ~caught:None ~on_done

let write t op ~on_done =
  Stats.incr t.stats "client.writes_issued";
  t.env.send_write ~op ~reply:on_done
