module Sim = Secrep_sim.Sim
module Work_queue = Secrep_sim.Work_queue
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Merkle = Secrep_crypto.Merkle
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Query_result = Secrep_store.Query_result
module Canonical = Secrep_store.Canonical

type read_reply = { result : Query_result.t; pledge : Pledge.t }

(* One pledge to sign: everything needed to build its payload (a Merkle
   leaf when batched) and, once signed, its reply. *)
type intent = {
  i_request : int;  (* lineage id of the read this pledge answers *)
  i_query : Query.t;
  i_result : Query_result.t;
  i_digest : string;
  i_keepalive : Keepalive.t;
  i_nonce : int;  (* client nonce echoed into the signed payload (0 = off) *)
  i_lied : bool;
  i_forge : bool;  (* Bad_signature attacker: ship a forged root signature *)
  i_reply : read_reply option -> unit;
}

type t = {
  sim : Sim.t;
  rng : Prng.t;
  id : int;
  config : Config.t;
  key : Sig_scheme.keypair;
  store : Store.t;
  work : Work_queue.t;
  stats : Stats.t;
  trace : Trace.t option;
  spans : Span.t option;
  mutable master_id : int;
  mutable behavior : Fault.behavior;
  mutable keepalive : Keepalive.t option;
  mutable excluded : bool;
  mutable resync : (slave_id:int -> from_version:int -> unit) option;
  mutable reads_served : int;
  mutable lies_told : int;
  mutable pending : intent list;  (* newest first *)
  mutable batch_gen : int;  (* bumped on every flush; stales window timers *)
  attack : Fault.state;  (* strategic-mode state: pressure EWMA, bursts *)
  mutable replay_ammo : (Query_result.t * Pledge.t) option;
      (* last honestly-signed reply, saved by a Replay_pledge attacker *)
  mutable last_lie : (int * string * float) option;
      (* (client, query digest, time) of the last lie — near-miss sensing *)
}

let create sim ~rng ~id ~config ~master_id ~stats ?trace ?spans () =
  {
    sim;
    rng;
    id;
    config;
    key = Sig_scheme.generate config.Config.scheme rng;
    store = Store.create ();
    work = Work_queue.create sim ();
    stats;
    trace;
    spans;
    master_id;
    behavior = Fault.Honest;
    keepalive = None;
    excluded = false;
    resync = None;
    reads_served = 0;
    lies_told = 0;
    pending = [];
    batch_gen = 0;
    attack = Fault.initial_state ();
    replay_ammo = None;
    last_lie = None;
  }

let source t = Printf.sprintf "slave-%d" t.id

let emit t event =
  match t.trace with
  | Some tr -> Trace.emit tr ~time:(Sim.now t.sim) ~source:(source t) event
  | None -> ()

let span t ~start ~duration name =
  match t.spans with
  | Some spans -> Span.record spans ~source:(source t) ~start ~duration name
  | None -> ()

let id t = t.id
let public t = Sig_scheme.public_of t.key
let master_id t = t.master_id
let set_master t ~master_id = t.master_id <- master_id
let set_behavior t behavior = t.behavior <- behavior
let behavior t = t.behavior
let on_resync_needed t f = t.resync <- Some f

(* Exclusions are public (corrective actions propagate); an [Adaptive]
   attacker reads them as audit pressure and lies less while hot. *)
let note_peer_excluded t =
  Fault.bump_pressure t.attack ~now:(Sim.now t.sim) ~amount:1.0

let dropping_updates t =
  match t.behavior with
  | Fault.Malicious { mode = Fault.Stale_state; from_time; _ } -> Sim.now t.sim >= from_time
  | Fault.Honest | Fault.Malicious _ -> false

let receive_update t ~entries ~keepalive =
  if not t.excluded then begin
    (* Links deliver with random latency, so packets can arrive out of
       order; never let a delayed older keep-alive shadow a fresher
       one. *)
    (match t.keepalive with
    | Some prev when prev.Keepalive.timestamp > keepalive.Keepalive.timestamp -> ()
    | Some _ | None -> t.keepalive <- Some keepalive);
    if not (dropping_updates t) then begin
      let before = Store.version t.store in
      List.iter
        (fun (entry : Oplog.entry) ->
          if entry.version = Store.version t.store + 1 then Store.apply_entry t.store entry
          (* entry.version <> current + 1: duplicate or gap, ignore /
             handled below *))
        entries;
      let after = Store.version t.store in
      if after > before then
        emit t
          (Event.State_update_applied { slave = t.id; from_version = before; to_version = after });
      (* The keep-alive names the master's current version, so any
         shortfall — whether the gap showed up inside [entries] or an
         earlier update was lost on the wire — triggers a resync.
         Periodic keep-alives retry this for free until it heals. *)
      let target =
        match t.keepalive with
        | Some ka -> ka.Keepalive.version
        | None -> keepalive.Keepalive.version
      in
      if after < target then begin
        Stats.incr t.stats "slave.resync_requests";
        match t.resync with
        | Some f -> f ~slave_id:t.id ~from_version:after
        | None -> ()
      end
    end
  end

let version t = Store.version t.store
let latest_keepalive t = t.keepalive

let is_available t ~now =
  (not t.excluded)
  && begin
       match t.keepalive with
       | Some ka -> Keepalive.is_fresh ka ~now ~max_latency:t.config.Config.max_latency
       | None -> false
     end

let exclude t = t.excluded <- true
let is_excluded t = t.excluded

let reinstate t ~checkpoint ~keepalive =
  match Store.of_bytes checkpoint with
  | Error msg -> Error ("Slave.reinstate: bad checkpoint: " ^ msg)
  | Ok fresh ->
    Store.assign t.store ~from:fresh;
    t.keepalive <- Some keepalive;
    t.behavior <- Fault.Honest;
    t.excluded <- false;
    Ok ()
let reads_served t = t.reads_served
let lies_told t = t.lies_told
let work t = t.work

(* A forged digest over the true result would fail the client's own
   hash check, so the attacker fabricates a *result* and signs its true
   hash: internally consistent, only re-execution exposes it.
   Colluders derive the fabrication from a shared tag and the query, so
   they agree with each other. *)
let fabricated_result t ~mode ~query =
  let body =
    match mode with
    | Fault.Collude tag ->
      Printf.sprintf "collusion-%s-%s" tag
        (Secrep_crypto.Hex.encode (Canonical.query_digest query))
    | Fault.Corrupt_result | Fault.Stale_state | Fault.Bad_signature | Fault.Omit_result
    | Fault.Replay_pledge | Fault.Equivocate _ | Fault.Adaptive _ | Fault.Flaky_omit _ ->
      Printf.sprintf "corrupted-%d-%d" t.id t.lies_told
  in
  Query_result.Agg (Secrep_store.Value.String body)

(* -- Merkle-batched pledge signing ----------------------------------- *)

let flush_batch t =
  match t.pending with
  | [] -> ()
  | pending ->
    let intents = List.rev pending in
    t.pending <- [];
    t.batch_gen <- t.batch_gen + 1;
    let n = List.length intents in
    let start = Sim.now t.sim in
    (* One signature amortized over the whole batch. *)
    span t ~start ~duration:t.config.Config.signature_cost "sign";
    Work_queue.submit t.work ~cost:t.config.Config.signature_cost (fun () ->
        if t.excluded then List.iter (fun i -> i.i_reply None) intents
        else begin
          Stats.incr t.stats "slave.signatures";
          let leaves =
            List.map
              (fun i ->
                Pledge.payload ~nonce:i.i_nonce ~slave_id:t.id ~query:i.i_query
                  ~result_digest:i.i_digest ~keepalive:i.i_keepalive ())
              intents
          in
          let tree = Merkle.build leaves in
          let root = Merkle.root tree in
          let signature = Pledge.sign_batch ~slave_key:t.key ~slave_id:t.id ~root in
          let version =
            match t.keepalive with
            | Some ka -> ka.Keepalive.version
            | None -> (List.hd intents).i_keepalive.Keepalive.version
          in
          emit t (Event.Pledge_batch_signed { slave = t.id; version; batch = n });
          List.iteri
            (fun idx i ->
              let proof = Merkle.prove tree idx in
              let pledge =
                {
                  Pledge.slave_id = t.id;
                  query = i.i_query;
                  result_digest = i.i_digest;
                  keepalive = i.i_keepalive;
                  nonce = i.i_nonce;
                  signature = (if i.i_forge then "forged" else signature);
                  mode = Pledge.Batched { root; proof };
                }
              in
              t.reads_served <- t.reads_served + 1;
              Stats.incr t.stats "slave.reads_served";
              emit t
                (Event.Pledge_signed
                   {
                     slave = t.id;
                     request = i.i_request;
                     version = Pledge.version pledge;
                     lied = i.i_lied;
                   });
              i.i_reply (Some { result = i.i_result; pledge }))
            intents
        end)

let enqueue_intent t intent =
  let was_empty = t.pending = [] in
  t.pending <- intent :: t.pending;
  if List.length t.pending >= t.config.Config.pledge_batch_size then flush_batch t
  else if was_empty then begin
    (* First pledge of a fresh batch arms the window timer; the
       generation check lets a size-triggered flush stale it. *)
    let gen = t.batch_gen in
    ignore
      (Sim.schedule t.sim ~delay:t.config.Config.pledge_batch_window (fun () ->
           if t.batch_gen = gen then flush_batch t))
  end

(* The pledge a read's reply carries under [lie], or [None] for a silent
   omission.  The lie is counted first: a fabricated result's body
   names [lies_told]. *)
let intent_of t ~lie ~request ~query ~result ~keepalive ~nonce ~reply =
  if lie <> None then begin
    t.lies_told <- t.lies_told + 1;
    Stats.incr t.stats "slave.lies_told"
  end;
  let pledge result =
    Some
      {
        i_request = request;
        i_query = query;
        i_result = result;
        i_digest = Canonical.result_digest result;
        i_keepalive = keepalive;
        i_nonce = nonce;
        i_lied = lie <> None;
        i_forge = lie = Some Fault.Bad_signature;
        i_reply = reply;
      }
  in
  match lie with
  | Some (Fault.Omit_result | Fault.Flaky_omit _ | Fault.Replay_pledge) -> None
  | Some ((Fault.Corrupt_result | Fault.Collude _ | Fault.Equivocate _ | Fault.Adaptive _) as mode)
    ->
    pledge (fabricated_result t ~mode ~query)
  | None | Some (Fault.Bad_signature | Fault.Stale_state) ->
    (* A [Stale_state] slave stopped applying updates (see
       [dropping_updates]): its honest-looking reply over frozen state
       *is* the lie. *)
    pledge result

(* Unbatched mode: one signature per pledge. *)
let sign_single t i =
  Stats.incr t.stats "slave.signatures";
  emit t
    (Event.Pledge_signed
       {
         slave = t.id;
         request = i.i_request;
         version = i.i_keepalive.Keepalive.version;
         lied = i.i_lied;
       });
  let pledge =
    Pledge.make ~nonce:i.i_nonce ~slave_key:t.key ~slave_id:t.id ~query:i.i_query
      ~result_digest:i.i_digest ~keepalive:i.i_keepalive ()
  in
  let pledge = if i.i_forge then { pledge with Pledge.signature = "forged" } else pledge in
  i.i_reply (Some { result = i.i_result; pledge })

let handle_read t ~client ~request ~query ~reply =
  let now = Sim.now t.sim in
  if t.excluded then reply None
  else begin
    match t.keepalive with
    | None -> reply None
    | Some keepalive ->
      (* An honest slave serves only with a fresh keep-alive *and* a
         store caught up to the version that keep-alive names: a slave
         that missed an update on the wire would otherwise sign pledges
         claiming the new version over old state — indistinguishable
         from a Stale_state attacker to the auditor.  "It should stop
         handling user requests until back in sync" (§3); an attacker
         ignores that rule. *)
      let honest_available =
        Keepalive.is_fresh keepalive ~now ~max_latency:t.config.Config.max_latency
        && keepalive.Keepalive.version = Store.version t.store
      in
      let nonce = if t.config.Config.read_nonces then request else 0 in
      let qdigest = Secrep_crypto.Hex.encode (Canonical.query_digest query) in
      (* Near-miss sensing: the client we just lied to re-asking the
         same query within the freshness window means a verification or
         double-check went against us.  An [Adaptive] attacker reacts
         by going quiet. *)
      (match (t.behavior, t.last_lie) with
      | Fault.Malicious { mode = Fault.Adaptive _; _ }, Some (c, qd, tl)
        when c = client && qd = qdigest
             && now -. tl <= 2.0 *. t.config.Config.max_latency ->
        Fault.note_near_miss t.attack ~now ~cooldown:(2.0 *. t.config.Config.max_latency);
        Fault.bump_pressure t.attack ~now ~amount:0.5;
        t.last_lie <- None
      | _ -> ());
      let decision = Fault.decide t.behavior ~now ~client t.attack t.rng in
      let behavior_mode_name =
        match t.behavior with
        | Fault.Malicious { mode; _ } -> Fault.mode_name mode
        | Fault.Honest -> ""
      in
      (match decision with
      | Fault.Suppress reason ->
        emit t
          (Event.Attack_suppressed { slave = t.id; mode = behavior_mode_name; reason })
      | Fault.Act _ | Fault.Pass -> ());
      (* Replay fast path: skip execution and signing entirely, resend
         the saved honest reply.  Its pledge is bound to the old read's
         nonce (or none), so nonce-checking clients reject it. *)
      match
        (match decision with Fault.Act Fault.Replay_pledge -> t.replay_ammo | _ -> None)
      with
      | Some (r_result, r_pledge) ->
        t.reads_served <- t.reads_served + 1;
        Stats.incr t.stats "slave.reads_served";
        t.lies_told <- t.lies_told + 1;
        Stats.incr t.stats "slave.lies_told";
        emit t
          (Event.Attack_launched
             { slave = t.id; mode = behavior_mode_name; client; request });
        t.last_lie <- Some (client, qdigest, now);
        reply (Some { result = r_result; pledge = r_pledge })
      | None ->
      (* Map the strategic modes onto the concrete lie machinery: the
         equivocator and the adaptive liar fabricate results like
         [Corrupt_result]; a flaky burst omits; a replay attacker with
         no ammo yet plays honest (and stocks up below). *)
      let lie, strategic =
        match decision with
        | Fault.Pass | Fault.Suppress _ -> (None, false)
        | Fault.Act mode -> (
          match mode with
          | Fault.Corrupt_result | Fault.Collude _ | Fault.Stale_state
          | Fault.Bad_signature | Fault.Omit_result ->
            (Some mode, false)
          | Fault.Replay_pledge -> (None, false)
          | Fault.Equivocate _ | Fault.Adaptive _ -> (Some Fault.Corrupt_result, true)
          | Fault.Flaky_omit _ -> (Some Fault.Omit_result, true))
      in
      if strategic then begin
        emit t
          (Event.Attack_launched
             { slave = t.id; mode = behavior_mode_name; client; request });
        t.last_lie <- Some (client, qdigest, now)
      end;
      let stock_ammo =
        (* honest read served by a replay attacker: remember the reply *)
        lie = None
        &&
        match t.behavior with
        | Fault.Malicious { mode = Fault.Replay_pledge; _ } -> true
        | Fault.Honest | Fault.Malicious _ -> false
      in
      let reply =
        if not stock_ammo then reply
        else
          fun r ->
            (match r with
            | Some rr -> t.replay_ammo <- Some (rr.result, rr.pledge)
            | None -> ());
            reply r
      in
      if (not honest_available) && lie = None then begin
        Stats.incr t.stats "slave.refused_stale";
        reply None
      end
      else begin
        match Query_eval.execute t.store query with
        | Error _ ->
          Stats.incr t.stats "slave.bad_queries";
          reply None
        | Ok { result; scanned } ->
          let exec_cost =
            Query_eval.cost_seconds ~scanned ~cost_class:(Query.cost_class query)
              ~per_doc:t.config.Config.per_doc_cost
          in
          let intent () = intent_of t ~lie ~request ~query ~result ~keepalive ~nonce ~reply in
          if t.config.Config.pledge_batch_size > 1 then begin
            (* Batched mode: the read only pays evaluation here; the
               signature cost is charged once per batch at flush. *)
            span t ~start:now ~duration:exec_cost "query_eval";
            Work_queue.submit t.work ~cost:exec_cost (fun () ->
                if t.excluded then reply None
                else
                  match intent () with
                  | Some i -> enqueue_intent t i
                  | None ->
                    (* silence; the client times out *)
                    t.reads_served <- t.reads_served + 1;
                    Stats.incr t.stats "slave.reads_served")
          end
          else begin
            let cost = exec_cost +. t.config.Config.signature_cost in
            (* Span durations follow the cost model: evaluation first,
               then the pledge signature. *)
            span t ~start:now ~duration:exec_cost "query_eval";
            span t ~start:(now +. exec_cost) ~duration:t.config.Config.signature_cost "sign";
            Work_queue.submit t.work ~cost (fun () ->
                if t.excluded then reply None
                else begin
                  t.reads_served <- t.reads_served + 1;
                  Stats.incr t.stats "slave.reads_served";
                  (* [None] is silence; the client times out. *)
                  Option.iter (sign_single t) (intent ())
                end)
          end
      end
  end
