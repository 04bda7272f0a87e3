module Sim = Secrep_sim.Sim
module Work_queue = Secrep_sim.Work_queue
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Process = Secrep_sim.Process
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Canonical = Secrep_store.Canonical

type write_ack = Committed of { version : int } | Denied of string

type double_check_reply = Checked of { digest : string; version : int } | Throttled

type proof_verdict = Slave_guilty | Pledge_invalid of string | Inconclusive of string

type slave_entry = { slave : Slave.t; send : Slave.t -> (unit -> unit) -> unit }

type t = {
  sim : Sim.t;
  id : int;
  config : Config.t;
  content : Content_key.t;
  key : Sig_scheme.keypair;
  certificate : Certificate.t;
  store : Store.t;
  oplog : Oplog.t;
  work : Work_queue.t;
  stats : Stats.t;
  trace : Trace.t;
  spans : Span.t;
  greedy : Greedy.t;
  order_write : origin:int -> write_id:int -> Oplog.op -> unit;
  mutable acl : int list option;
  slaves : (int, slave_entry) Hashtbl.t;
  mutable pending_writes : (int * (write_ack -> unit)) list; (* write_id, ack *)
  mutable next_write_id : int;
  mutable next_apply_at : float; (* earliest time the next commit may apply *)
  mutable committed_observer : (Oplog.entry -> commit_time:float -> unit) option;
  mutable alive : bool;
  mutable keepalive_proc : Process.t option;
  (* §3: masters periodically broadcast their slave list to the master
     set so survivors can divide a crashed master's slaves.  This table
     holds the most recent list heard from each peer. *)
  peer_slave_sets : (int, int list) Hashtbl.t;
}

let source t = Printf.sprintf "master-%d" t.id

let trace t fmt =
  Printf.ksprintf (fun s -> Trace.log t.trace ~time:(Sim.now t.sim) ~source:(source t) s) fmt

let emit t event = Trace.emit t.trace ~time:(Sim.now t.sim) ~source:(source t) event

let span t ~duration name =
  Span.record t.spans ~source:(source t) ~start:(Sim.now t.sim) ~duration name

let create sim ~rng ~id ~config ~content ~order_write ~stats ~trace ~spans =
  let key = Sig_scheme.generate config.Config.scheme rng in
  let certificate =
    Certificate.issue content ~master_id:id
      ~address:(Printf.sprintf "master-%d.sim:7000" id)
      (Sig_scheme.public_of key)
  in
  {
    sim;
    id;
    config;
    content;
    key;
    certificate;
    store = Store.create ();
    oplog = Oplog.create ();
    work = Work_queue.create sim ();
    stats;
    trace;
    spans;
    greedy =
      Greedy.create ~window:config.Config.greedy_window ~factor:config.Config.greedy_factor
        ~min_samples:config.Config.greedy_min_samples ~rng:(Prng.split rng);
    order_write;
    acl = None;
    slaves = Hashtbl.create 16;
    pending_writes = [];
    next_write_id = 0;
    next_apply_at = 0.0;
    committed_observer = None;
    alive = true;
    keepalive_proc = None;
    peer_slave_sets = Hashtbl.create 8;
  }

let id t = t.id
let public t = Sig_scheme.public_of t.key
let keypair t = t.key
let certificate t = t.certificate
let store t = t.store
let version t = Store.version t.store
let work t = t.work
let set_acl t ~allowed_writers = t.acl <- allowed_writers
let on_write_committed t f = t.committed_observer <- Some f

let make_keepalive t =
  Keepalive.make ~master_key:t.key
    ~content_id:(Content_key.content_id t.content)
    ~master_id:t.id ~version:(version t) ~now:(Sim.now t.sim)

let push_to_slave t entry_list =
  let keepalive = make_keepalive t in
  fun { slave; send } ->
    if not (Slave.is_excluded slave) then
      send slave (fun () -> Slave.receive_update slave ~entries:entry_list ~keepalive)

let broadcast_to_slaves t entry_list =
  let push = push_to_slave t entry_list in
  Hashtbl.iter (fun _ entry -> push entry) t.slaves

let add_slave t slave ~send =
  Hashtbl.replace t.slaves (Slave.id slave) { slave; send };
  Slave.set_master slave ~master_id:t.id;
  Slave.on_resync_needed slave (fun ~slave_id ~from_version ->
      match Hashtbl.find_opt t.slaves slave_id with
      | Some entry when t.alive ->
        let missing = Oplog.entries_after t.oplog from_version in
        Stats.incr t.stats "master.resyncs_served";
        let keepalive = make_keepalive t in
        entry.send entry.slave (fun () ->
            Slave.receive_update entry.slave ~entries:missing ~keepalive)
      | Some _ | None -> ());
  (* Bring the newcomer up to date immediately. *)
  let all = Oplog.entries_after t.oplog (Slave.version slave) in
  (push_to_slave t all) { slave; send }

let remove_slave t ~slave_id = Hashtbl.remove t.slaves slave_id

let slave_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.slaves [] |> List.sort Int.compare

let assign_slave t ~rng ~excluding =
  let candidates =
    Hashtbl.fold
      (fun id entry acc ->
        if (not (Slave.is_excluded entry.slave)) && not (List.mem id excluding) then
          entry.slave :: acc
        else acc)
      t.slaves []
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
    let arr = Array.of_list (List.sort (fun a b -> Int.compare (Slave.id a) (Slave.id b)) candidates) in
    Some (Prng.pick rng arr)

let record_peer_slaves t ~master ~slaves = Hashtbl.replace t.peer_slave_sets master slaves

let peer_slaves t ~of_ =
  match Hashtbl.find_opt t.peer_slave_sets of_ with Some l -> l | None -> []

let bootstrap t ~preapplied entries =
  (match entries with
  | (first : Oplog.entry) :: _ when first.version <> Store.version t.store + 1 ->
    invalid_arg "Master.bootstrap: entries do not continue the store's version"
  | _ -> ());
  Store.assign t.store ~from:preapplied;
  List.iter (Oplog.append t.oplog) entries

(* -- writes -------------------------------------------------------- *)

(* Simulated seconds to apply one committed write op. *)
let write_cost = 1e-3

let handle_write t ~client ~op ~reply =
  if not t.alive then ()
  else begin
    let allowed = match t.acl with None -> true | Some ids -> List.mem client ids in
    if not allowed then begin
      Stats.incr t.stats "master.writes_denied";
      reply (Denied (Printf.sprintf "client %d is not permitted to write" client))
    end
    else begin
      let write_id = t.next_write_id in
      t.next_write_id <- write_id + 1;
      t.pending_writes <- (write_id, reply) :: t.pending_writes;
      Stats.incr t.stats "master.writes_submitted";
      t.order_write ~origin:t.id ~write_id op
    end
  end

let apply_committed t ~origin ~write_id op =
  let entry = { Oplog.version = version t + 1; op } in
  Store.apply t.store op;
  Oplog.append t.oplog entry;
  Stats.incr t.stats "master.writes_committed";
  emit t (Event.Write_committed { master = t.id; version = entry.Oplog.version });
  broadcast_to_slaves t [ entry ];
  (match t.committed_observer with
  | Some f -> f entry ~commit_time:(Sim.now t.sim)
  | None -> ());
  if origin = t.id then begin
    match List.assoc_opt write_id t.pending_writes with
    | Some reply ->
      t.pending_writes <- List.remove_assoc write_id t.pending_writes;
      reply (Committed { version = entry.Oplog.version })
    | None -> ()
  end

let on_delivered_write t ~origin ~write_id ~op =
  if t.alive then begin
    (* §3.1: consecutive commits must be at least max_latency apart so a
       read any second write depends on has absorbed the first.  All
       masters see the same delivery order and apply the same spacing
       rule, so their stores stay identical. *)
    let now = Sim.now t.sim in
    let apply_at = Float.max now t.next_apply_at in
    t.next_apply_at <- apply_at +. t.config.Config.max_latency;
    ignore
      (Sim.schedule t.sim ~delay:(apply_at -. now) (fun () ->
           if t.alive then
             Work_queue.submit t.work ~cost:write_cost (fun () ->
                 if t.alive then apply_committed t ~origin ~write_id op)))
  end

(* -- keep-alives ---------------------------------------------------- *)

let start_keepalive t =
  match t.keepalive_proc with
  | Some _ -> ()
  | None ->
    let proc =
      Process.periodic t.sim ~period:t.config.Config.keepalive_period (fun () ->
          if t.alive then begin
            Stats.incr t.stats "master.keepalives_sent";
            emit t (Event.Keepalive_sent { master = t.id; version = version t });
            span t ~duration:t.config.Config.signature_cost "sign";
            broadcast_to_slaves t []
          end)
    in
    t.keepalive_proc <- Some proc

(* -- reads on the master -------------------------------------------- *)

let execute_query_cost t query =
  match Query_eval.execute t.store query with
  | Error msg -> Error msg
  | Ok { result; scanned } ->
    let cost =
      Query_eval.cost_seconds ~scanned ~cost_class:(Query.cost_class query)
        ~per_doc:t.config.Config.per_doc_cost
    in
    Ok (result, cost)

let handle_double_check t ~client ~query ~reply =
  if not t.alive then ()
  else if not (Greedy.should_serve t.greedy ~client ~now:(Sim.now t.sim)) then begin
    Stats.incr t.stats "master.double_checks_throttled";
    reply Throttled
  end
  else begin
    match execute_query_cost t query with
    | Error _ -> reply Throttled
    | Ok (result, cost) ->
      Stats.incr t.stats "master.double_checks_served";
      span t ~duration:cost "query_eval";
      let v = version t in
      Work_queue.submit t.work ~cost (fun () ->
          if t.alive then
            reply (Checked { digest = Canonical.result_digest result; version = v }))
  end

let handle_sensitive_read t ~client:_ ~query ~reply =
  if not t.alive then ()
  else begin
    match execute_query_cost t query with
    | Error _ -> reply None
    | Ok (result, cost) ->
      Stats.incr t.stats "master.sensitive_reads";
      span t ~duration:cost "query_eval";
      let v = version t in
      Work_queue.submit t.work ~cost (fun () -> if t.alive then reply (Some (result, v)))
  end

(* -- corrective action ----------------------------------------------- *)

let handle_proof t ~proof ~slave_public =
  if not (Pledge.verify_signature ~slave_public proof) then
    Pledge_invalid "pledge signature does not verify"
  else begin
    let pledged_version = Pledge.version proof in
    if pledged_version <> version t then
      Inconclusive
        (Printf.sprintf "pledge is for version %d, master is at %d; deferring to the auditor"
           pledged_version (version t))
    else begin
      match Query_eval.execute t.store proof.Pledge.query with
      | Error msg -> Pledge_invalid ("query does not execute: " ^ msg)
      | Ok { result; _ } ->
        if String.equal (Canonical.result_digest result) proof.Pledge.result_digest then
          Inconclusive "slave's digest matches the correct result"
        else begin
          Stats.incr t.stats "master.slaves_convicted";
          trace t "slave %d convicted by pledge (version %d)" proof.Pledge.slave_id
            pledged_version;
          Slave_guilty
        end
    end
  end

let crash t =
  if t.alive then begin
    t.alive <- false;
    (match t.keepalive_proc with Some p -> Process.stop p | None -> ());
    trace t "crash";
    Stats.incr t.stats "master.crashes"
  end

let is_alive t = t.alive
