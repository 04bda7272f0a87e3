module Sim = Secrep_sim.Sim
module Link = Secrep_sim.Link
module Latency = Secrep_sim.Latency
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Prng = Secrep_crypto.Prng

(* Seconds.  A member suspects the sequencer after [suspect_timeout]
   without a heartbeat, so it must exceed [heartbeat_period];
   [retry_period] paces request retransmission and [state_sync_wait] is
   how long a new sequencer collects state. *)
let heartbeat_period = 0.5
let suspect_timeout = 2.0
let retry_period = 1.0
let state_sync_wait = 1.0

type 'a slot = { origin : int; req_id : int; payload : 'a; slot_view : int }

type 'a member = {
  id : int;
  mutable up : bool;
  mutable view : int;
  mutable sequencer : int;
  mutable next_deliver : int; (* lowest undelivered slot *)
  log : (int, 'a slot) Hashtbl.t; (* every Ordered seen, by slot *)
  dedup : (int * int, int) Hashtbl.t; (* (origin, req_id) -> slot; rebuilt from log on take-over *)
  mutable next_seq : int; (* meaningful when sequencer *)
  mutable last_heartbeat : float;
  mutable pending : (int * 'a) list; (* my requests not yet seen ordered: (req_id, payload) *)
  mutable next_req_id : int;
  mutable syncing : bool; (* collecting state before installing a view *)
  mutable sync_view : int;
  mutable sync_highest : int;
  sync_replies : (int, int) Hashtbl.t; (* replier -> highest seq, this sync *)
  mutable sync_rounds : int;
  mutable suspect_rounds : int; (* consecutive timeouts; rotates the candidate *)
  delivered_reqs : (int * int, unit) Hashtbl.t;
      (* (origin, req_id) already handed to the application: a request
         re-ordered after losing a view race must not deliver twice *)
  mutable delivered : int;
}

type 'a t = {
  sim : Sim.t;
  trace : Trace.t option;
  members : (int, 'a member) Hashtbl.t;
  ids : int list;
  links : (int * int, Link.t) Hashtbl.t;
  deliver : member:int -> seq:int -> 'a -> unit;
}

let trace t m fmt =
  Printf.ksprintf
    (fun s ->
      match t.trace with
      | Some tr -> Trace.log tr ~time:(Sim.now t.sim) ~source:(Printf.sprintf "master-%d" m) s
      | None -> ())
    fmt

let emit t m event =
  match t.trace with
  | Some tr ->
    Trace.emit tr ~time:(Sim.now t.sim) ~source:(Printf.sprintf "master-%d" m) event
  | None -> ()

let member t id =
  match Hashtbl.find_opt t.members id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Total_order: unknown member %d" id)

let link t src dst = Hashtbl.find t.links (src, dst)

let send t src dst msg handler =
  if src = dst then ignore (Sim.schedule t.sim ~delay:1e-6 (fun () -> handler msg))
  else Link.send (link t src dst) (fun () -> handler msg)

let rebuild_dedup me =
  Hashtbl.reset me.dedup;
  Hashtbl.iter (fun seq slot -> Hashtbl.replace me.dedup (slot.origin, slot.req_id) seq) me.log

let rec handle t me (msg : 'a Message.t) =
  if me.up then begin
    match msg with
    | Message.Request { origin; req_id; payload } -> on_request t me ~origin ~req_id payload
    | Ordered { view; slot_view; seq; origin; req_id; payload } ->
      on_ordered t me ~view ~seq { origin; req_id; payload; slot_view }
    | Heartbeat { view; sequencer; next_seq } -> on_heartbeat t me ~view ~sequencer ~next_seq
    | Nack { asker; from_seq; upto_seq } -> on_nack t me ~asker ~from_seq ~upto_seq
    | State_request { view; asker } -> on_state_request t me ~view ~asker
    | State_reply { view; replier; highest_seq } -> on_state_reply t me ~view ~replier ~highest_seq
    | New_view { view; sequencer; next_seq } -> on_new_view t me ~view ~sequencer ~next_seq
    | Take_over { view } -> on_take_over t me ~view
  end

and unicast t ~src ~dst msg =
  let dst_member = member t dst in
  send t src dst msg (fun m -> handle t dst_member m)

and broadcast_msg t ~src msg =
  List.iter (fun dst -> if dst <> src then unicast t ~src ~dst msg) t.ids

and on_request t me ~origin ~req_id payload =
  if me.id = me.sequencer && not me.syncing then begin
    match Hashtbl.find_opt me.dedup (origin, req_id) with
    | Some seq -> begin
      (* Duplicate: the origin evidently missed the Ordered; re-send it. *)
      match Hashtbl.find_opt me.log seq with
      | Some slot when origin <> me.id ->
        unicast t ~src:me.id ~dst:origin
          (Message.Ordered
             {
               view = me.view;
               slot_view = slot.slot_view;
               seq;
               origin = slot.origin;
               req_id = slot.req_id;
               payload = slot.payload;
             })
      | Some _ | None -> ()
    end
    | None ->
      let seq = me.next_seq in
      me.next_seq <- seq + 1;
      Hashtbl.replace me.dedup (origin, req_id) seq;
      let slot = { origin; req_id; payload; slot_view = me.view } in
      Hashtbl.replace me.log seq slot;
      trace t me.id "order seq=%d from %d#%d" seq origin req_id;
      let ordered =
        Message.Ordered { view = me.view; slot_view = me.view; seq; origin; req_id; payload }
      in
      broadcast_msg t ~src:me.id ordered;
      (* The sequencer delivers its own slots through the same path. *)
      try_deliver t me
  end
  (* else: not sequencer; the requester's retry will find the new one *)

and on_ordered t me ~view ~seq slot =
  if view >= me.view then begin
    if view > me.view then begin
      (* We learn of a newer view implicitly; the New_view carrying the
         sequencer identity may still be in flight. *)
      me.view <- view
    end;
    me.last_heartbeat <- Sim.now t.sim;
    (match Hashtbl.find_opt me.log seq with
    | None -> Hashtbl.replace me.log seq slot
    | Some existing ->
      (* A slot can be re-assigned by a later view only if the earlier
         assignment never committed anywhere; undelivered conflicts
         yield to the higher view. *)
      if slot.slot_view > existing.slot_view && seq >= me.next_deliver then
        Hashtbl.replace me.log seq slot);
    (* NB: the request stays on our retry list until *delivered* — an
       assignment can still lose a view race and vanish. *)
    if seq > me.next_deliver then request_fill t me ~upto:(seq - 1);
    try_deliver t me
  end

and try_deliver t me =
  let rec drain () =
    match Hashtbl.find_opt me.log me.next_deliver with
    | Some slot ->
      let seq = me.next_deliver in
      me.next_deliver <- seq + 1;
      if slot.origin = me.id then
        me.pending <- List.filter (fun (rid, _) -> rid <> slot.req_id) me.pending;
      (* At-most-once: a request that was re-ordered after losing a view
         race may occupy two slots; every member sees the same slot
         sequence, so every member skips the same duplicates. *)
      if not (Hashtbl.mem me.delivered_reqs (slot.origin, slot.req_id)) then begin
        Hashtbl.replace me.delivered_reqs (slot.origin, slot.req_id) ();
        me.delivered <- me.delivered + 1;
        emit t me.id (Event.Order_delivered { member = me.id; seq });
        t.deliver ~member:me.id ~seq slot.payload
      end;
      drain ()
    | None -> ()
  in
  drain ()

and request_fill t me ~upto =
  if upto >= me.next_deliver then begin
    let nack = Message.Nack { asker = me.id; from_seq = me.next_deliver; upto_seq = upto } in
    (* Ask everyone: after a sequencer crash, the slot may survive only
       on some non-sequencer member. *)
    broadcast_msg t ~src:me.id nack
  end

and on_nack t me ~asker ~from_seq ~upto_seq =
  let count = ref 0 in
  for seq = from_seq to upto_seq do
    match Hashtbl.find_opt me.log seq with
    | Some slot ->
      incr count;
      unicast t ~src:me.id ~dst:asker
        (Message.Ordered
           {
             view = me.view;
             slot_view = slot.slot_view;
             seq;
             origin = slot.origin;
             req_id = slot.req_id;
             payload = slot.payload;
           })
    | None -> ()
  done;
  if !count > 0 then trace t me.id "retransmit %d slots to %d" !count asker

and on_heartbeat t me ~view ~sequencer ~next_seq =
  if view >= me.view then begin
    me.view <- view;
    (* The heartbeat names the live sequencer: a member that missed the
       (lossy) New_view packet re-learns the leadership here instead of
       suspecting a long-dead node forever. *)
    me.sequencer <- sequencer;
    me.last_heartbeat <- Sim.now t.sim;
    me.suspect_rounds <- 0;
    if next_seq - 1 >= me.next_deliver then request_fill t me ~upto:(next_seq - 1)
  end

and on_state_request t me ~view ~asker =
  if view >= me.view then begin
    (* An election is in progress: someone alive is driving it, so do
       not stack further suspicions on top of it. *)
    me.last_heartbeat <- Sim.now t.sim;
    me.suspect_rounds <- 0;
    if view > me.view then begin
      me.view <- view;
      (* A deposed sequencer must stop ordering immediately, and a
         lower-view election still syncing must abort: assigning slots
         concurrently with the new view's sequencer is how replicas
         diverge. *)
      if me.sequencer = me.id then me.sequencer <- asker;
      if me.syncing && me.sync_view < view then me.syncing <- false
    end;
    let highest = Hashtbl.fold (fun seq _ acc -> max seq acc) me.log (-1) in
    unicast t ~src:me.id ~dst:asker (Message.State_reply { view; replier = me.id; highest_seq = highest })
  end

and on_state_reply t me ~view ~replier ~highest_seq =
  if me.syncing && view = me.sync_view && view >= me.view then begin
    Hashtbl.replace me.sync_replies replier highest_seq;
    me.sync_highest <- max me.sync_highest highest_seq;
    (* Heard from every other member: no need to wait out the timer. *)
    if Hashtbl.length me.sync_replies >= List.length t.ids - 1 then
      finish_take_over t me ~view
  end

and on_new_view t me ~view ~sequencer ~next_seq =
  if view >= me.view then begin
    emit t me.id (Event.View_installed { member = me.id; view; sequencer });
    me.view <- view;
    me.sequencer <- sequencer;
    me.last_heartbeat <- Sim.now t.sim;
    me.syncing <- false;
    if next_seq - 1 >= me.next_deliver then request_fill t me ~upto:(next_seq - 1);
    (* Re-send unordered requests to the new sequencer straight away. *)
    resend_pending t me
  end

and resend_pending t me =
  List.iter
    (fun (req_id, payload) ->
      if me.sequencer = me.id then on_request t me ~origin:me.id ~req_id payload
      else
        unicast t ~src:me.id ~dst:me.sequencer
          (Message.Request { origin = me.id; req_id; payload }))
    me.pending

and on_take_over t me ~view =
  me.last_heartbeat <- Sim.now t.sim;
  if view > me.view && not me.syncing then start_take_over t me ~view

and start_take_over t me ~view =
  trace t me.id "taking over as sequencer for view %d" view;
  me.syncing <- true;
  me.sync_view <- view;
  me.sync_highest <- Hashtbl.fold (fun seq _ acc -> max seq acc) me.log (-1);
  Hashtbl.reset me.sync_replies;
  me.sync_rounds <- 0;
  sync_round t me ~view

and sync_round t me ~view =
  (* Re-broadcast the state request until every other member has
     answered (losing a survivor's reply could otherwise make us reuse
     a slot it already holds).  Crashed members never answer, so a
     bounded number of rounds breaks the wait. *)
  if me.up && me.syncing && me.sync_view = view && view >= me.view then begin
    me.sync_rounds <- me.sync_rounds + 1;
    if me.sync_rounds > 8 then finish_take_over t me ~view
    else begin
      broadcast_msg t ~src:me.id (Message.State_request { view; asker = me.id });
      ignore
        (Sim.schedule t.sim ~delay:state_sync_wait (fun () ->
             if me.up && me.syncing && me.sync_view = view then sync_round t me ~view))
    end
  end

and finish_take_over t me ~view =
  (* Abort if a higher view's election reached us while we were
     collecting state: finishing anyway would *downgrade* our view and
     put two sequencers in business at once. *)
  if view < me.view then me.syncing <- false
  else begin
  me.syncing <- false;
  me.view <- view;
  me.sequencer <- me.id;
  emit t me.id (Event.View_installed { member = me.id; view; sequencer = me.id });
  (* Recompute our own log top *now*: slots may have arrived (and even
     been delivered) while the state-sync rounds were running, and
     re-using their numbers would orphan the requests they carry. *)
  let own_top = Hashtbl.fold (fun seq _ acc -> max seq acc) me.log (-1) in
  me.next_seq <- max me.sync_highest own_top + 1;
  (* Rebuild request dedup from the log: after the state-sync round we
     hold the highest slot anyone admitted to, and nack-driven fills
     close the holes before those slots can be re-ordered. *)
  rebuild_dedup me;
  broadcast_msg t ~src:me.id (Message.New_view { view; sequencer = me.id; next_seq = me.next_seq });
  me.last_heartbeat <- Sim.now t.sim;
  (* Close our own holes (slots other members hold that we missed). *)
  request_fill t me ~upto:(me.next_seq - 1);
  resend_pending t me;
  try_deliver t me
  end

let check_suspect t me =
  if me.up && me.sequencer <> me.id && not me.syncing then begin
    let silent_for = Sim.now t.sim -. me.last_heartbeat in
    if silent_for > suspect_timeout then begin
      me.suspect_rounds <- me.suspect_rounds + 1;
      let candidates = List.filter (fun id -> id <> me.sequencer) t.ids in
      match candidates with
      | [] -> ()
      | _ :: _ ->
        (* Rotate through candidates on successive rounds, so a crashed
           first choice does not wedge the view change. *)
        let idx = (me.suspect_rounds - 1) mod List.length candidates in
        let candidate = List.nth candidates idx in
        let view = me.view + me.suspect_rounds in
        trace t me.id "suspect sequencer %d; candidate %d for view %d" me.sequencer candidate
          view;
        if candidate = me.id then start_take_over t me ~view
        else unicast t ~src:me.id ~dst:candidate (Message.Take_over { view })
    end
    else me.suspect_rounds <- 0
  end

let heartbeat_tick t me =
  if me.up && me.sequencer = me.id && not me.syncing then
    broadcast_msg t ~src:me.id
      (Message.Heartbeat { view = me.view; sequencer = me.id; next_seq = me.next_seq })

let retry_tick t me =
  if me.up then begin
    resend_pending t me;
    (* Periodic gap repair: a one-shot nack (or its retransmission) can
       be lost; as long as our log has slots above next_deliver, keep
       asking for the holes. *)
    let top = Hashtbl.fold (fun seq _ acc -> max seq acc) me.log (-1) in
    let top = if me.id = me.sequencer then max top (me.next_seq - 1) else top in
    if top >= me.next_deliver then request_fill t me ~upto:top
  end

let create sim ~rng ~members ~latency ?(loss = 0.0) ?trace:trace_buf ~deliver () =
  if members = [] then invalid_arg "Total_order.create: no members";
  let sorted = List.sort_uniq Int.compare members in
  if List.length sorted <> List.length members then
    invalid_arg "Total_order.create: duplicate member ids";
  List.iter (fun id -> if id < 0 then invalid_arg "Total_order.create: negative id") sorted;
  let initial_sequencer =
    match Election.sequencer ~alive:sorted with Some s -> s | None -> assert false
  in
  let table = Hashtbl.create 8 in
  List.iter
    (fun id ->
      Hashtbl.replace table id
        {
          id;
          up = true;
          view = 0;
          sequencer = initial_sequencer;
          next_deliver = 0;
          log = Hashtbl.create 64;
          dedup = Hashtbl.create 64;
          next_seq = 0;
          last_heartbeat = 0.0;
          pending = [];
          next_req_id = 0;
          syncing = false;
          sync_view = 0;
          sync_highest = -1;
          sync_replies = Hashtbl.create 8;
          sync_rounds = 0;
          suspect_rounds = 0;
          delivered_reqs = Hashtbl.create 64;
          delivered = 0;
        })
    sorted;
  let links = Hashtbl.create 16 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            Hashtbl.replace links (src, dst)
              (Link.create sim ~rng:(Prng.split rng) ~latency ~loss
                 ~name:(Printf.sprintf "to[%d->%d]" src dst) ()))
        sorted)
    sorted;
  let t =
    { sim; trace = trace_buf; members = table; ids = sorted; links; deliver }
  in
  List.iter
    (fun id ->
      let me = member t id in
      ignore
        (Secrep_sim.Process.periodic sim ~period:heartbeat_period
           ~jitter:(heartbeat_period /. 10.0) ~rng:(Prng.split rng)
           (fun () -> heartbeat_tick t me));
      ignore
        (Secrep_sim.Process.periodic sim ~period:heartbeat_period
           ~jitter:(heartbeat_period /. 10.0) ~rng:(Prng.split rng)
           ~start_delay:suspect_timeout
           (fun () -> check_suspect t me));
      ignore
        (Secrep_sim.Process.periodic sim ~period:retry_period
           ~jitter:(retry_period /. 10.0) ~rng:(Prng.split rng)
           ~start_delay:retry_period
           (fun () -> retry_tick t me)))
    sorted;
  t

let broadcast t ~from payload =
  let me = member t from in
  if not me.up then invalid_arg "Total_order.broadcast: member crashed";
  let req_id = me.next_req_id in
  me.next_req_id <- req_id + 1;
  me.pending <- (req_id, payload) :: me.pending;
  if me.sequencer = me.id then on_request t me ~origin:me.id ~req_id payload
  else
    unicast t ~src:me.id ~dst:me.sequencer (Message.Request { origin = me.id; req_id; payload })

let crash t id =
  let me = member t id in
  if me.up then begin
    me.up <- false;
    trace t id "crash";
    List.iter
      (fun other ->
        if other <> id then begin
          Link.set_up (link t id other) false;
          Link.set_up (link t other id) false
        end)
      t.ids
  end

let alive t = List.filter (fun id -> (member t id).up) t.ids
let is_alive t id = (member t id).up
let view_of t id = (member t id).view
let sequencer_of t id = (member t id).sequencer
let delivered_count t id = (member t id).delivered
let link_between t src dst = Hashtbl.find t.links (src, dst)
