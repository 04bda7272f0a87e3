module Sim = Secrep_sim.Sim
module Link = Secrep_sim.Link
module Latency = Secrep_sim.Latency
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Work_queue = Secrep_sim.Work_queue
module Histogram = Secrep_sim.Histogram
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Store = Secrep_store.Store
module Snapshot = Secrep_store.Snapshot
module Oplog = Secrep_store.Oplog
module Document = Secrep_store.Document
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Canonical = Secrep_store.Canonical
module Total_order = Secrep_broadcast.Total_order

type net_profile = {
  master_master : Latency.t;
  master_slave : Latency.t;
  client_slave : Latency.t;
  client_master : Latency.t;
  client_auditor : Latency.t;
  loss : float;
}

let default_net =
  {
    master_master = Latency.Exponential { mean = 0.01; floor = 0.03 };
    master_slave = Latency.Exponential { mean = 0.01; floor = 0.03 };
    client_slave = Latency.Exponential { mean = 0.004; floor = 0.006 };
    client_master = Latency.Exponential { mean = 0.015; floor = 0.035 };
    client_auditor = Latency.Exponential { mean = 0.015; floor = 0.035 };
    loss = 0.0;
  }

let lan_net =
  {
    master_master = Latency.Constant 0.0005;
    master_slave = Latency.Constant 0.0005;
    client_slave = Latency.Constant 0.0002;
    client_master = Latency.Constant 0.0005;
    client_auditor = Latency.Constant 0.0005;
    loss = 0.0;
  }

type endpoint = M of int | S of int | C of int | A

(* Everything the masters agree on goes through the same total-order
   broadcast: client writes, and the periodic slave-list announcements
   of §3 that make master-crash recovery possible. *)
type payload =
  | Write of { origin : int; write_id : int; op : Oplog.op }
  | Slave_list of { master : int; slaves : int list }

type t = {
  sim : Sim.t;
  config : Config.t;
  net : net_profile;
  rng : Prng.t;
  stats : Stats.t;
  trace : Trace.t;
  spans : Span.t;
  corrective : Corrective.t;
  content : Content_key.t;
  directory : Directory.t;
  masters : Master.t array;
  slaves : Slave.t array;
  mutable clients : Client.t array;
  auditors : Auditor.t array;
  group : payload Total_order.t;
  links : (endpoint * endpoint, Link.t) Hashtbl.t;
  (* chaos state: a link is up iff neither endpoint is partitioned, so
     lazily-created links honor cuts that predate them *)
  partitioned : (endpoint, unit) Hashtbl.t;
  crashed_slaves : (int, unit) Hashtbl.t;
  mutable loss_override : float option;
  mutable latency_factor : float;
  (* Byzantine delivery faults (chaos-schedulable; all default off) *)
  mutable duplicate_override : float;
  mutable reorder_override : (int * float) option; (* burst, window *)
  mutable bitflip : float;
  (* assignment state *)
  client_master : int array;
  client_slave : int array;
  slave_master : int array;
  (* ground truth *)
  oracle : Store.t;
  oracle_snapshots : (int, Snapshot.t) Hashtbl.t;
  mutable oracle_buffer : Oplog.entry list;
  (* observers of every pledge delivered to an auditor (test harness) *)
  mutable pledge_taps : (Pledge.t -> unit) list;
}

let sim t = t.sim
let config t = t.config
let stats t = t.stats
let trace t = t.trace
let spans t = t.spans
let corrective t = t.corrective
let auditor t = t.auditors.(0)
let auditors t = Array.to_list t.auditors
let directory t = t.directory
let content_id t = Content_key.content_id t.content
let n_masters t = Array.length t.masters
let n_slaves t = Array.length t.slaves
let n_clients t = Array.length t.clients
let master t i = t.masters.(i)
let slave t i = t.slaves.(i)
let client t i = t.clients.(i)
let master_of_client t i = t.client_master.(i)
let slave_of_client t i = t.client_slave.(i)
let master_of_slave t i = t.slave_master.(i)
let oracle_version t = Store.version t.oracle

let log t source fmt =
  Printf.ksprintf (fun s -> Trace.log t.trace ~time:(Sim.now t.sim) ~source s) fmt

let latency_for t a b =
  match (a, b) with
  | M _, M _ -> t.net.master_master
  | (M _, S _ | S _, M _) -> t.net.master_slave
  | (C _, S _ | S _, C _) -> t.net.client_slave
  | (C _, M _ | M _, C _) -> t.net.client_master
  | (C _, A | A, C _) -> t.net.client_auditor
  | (M _, A | A, M _) -> t.net.master_master
  | (S _, S _ | S _, A | A, S _ | C _, C _ | A, A) -> t.net.client_master

let endpoint_name = function
  | M i -> Printf.sprintf "m%d" i
  | S i -> Printf.sprintf "s%d" i
  | C i -> Printf.sprintf "c%d" i
  | A -> "aud"

(* Long names for chaos trace events (the fuzz invariants parse these). *)
let node_name = function
  | M i -> Printf.sprintf "master-%d" i
  | S i -> Printf.sprintf "slave-%d" i
  | C i -> Printf.sprintf "client-%d" i
  | A -> "auditor"

let link t a b =
  match Hashtbl.find_opt t.links (a, b) with
  | Some l -> l
  | None ->
    let latency =
      if t.latency_factor = 1.0 then latency_for t a b
      else Latency.scale (latency_for t a b) t.latency_factor
    in
    let loss = match t.loss_override with Some l -> l | None -> t.net.loss in
    let l =
      Link.create t.sim ~rng:(Prng.split t.rng) ~latency ~loss
        ~name:(Printf.sprintf "%s->%s" (endpoint_name a) (endpoint_name b))
        ()
    in
    if Hashtbl.mem t.partitioned a || Hashtbl.mem t.partitioned b then Link.set_up l false;
    if t.duplicate_override > 0.0 then Link.set_duplicate l t.duplicate_override;
    (match t.reorder_override with
    | Some (burst, window) -> Link.set_reorder l ~burst ~window
    | None -> ());
    Hashtbl.add t.links (a, b) l;
    l

(* Every simulated hop is also a "network" span (recorded at delivery,
   when the duration is known); dropped messages leave no span. *)
let send t a b thunk =
  let sent = Sim.now t.sim in
  Link.send (link t a b) (fun () ->
      Span.record t.spans
        ~source:(Printf.sprintf "net:%s->%s" (endpoint_name a) (endpoint_name b))
        ~start:sent
        ~duration:(Sim.now t.sim -. sent)
        "network";
      thunk ())

(* -- ground truth ---------------------------------------------------- *)

let oracle_absorb t entry =
  t.oracle_buffer <-
    List.sort
      (fun (a : Oplog.entry) b -> Int.compare a.version b.version)
      (entry :: t.oracle_buffer);
  let rec drain () =
    match t.oracle_buffer with
    | e :: rest when e.Oplog.version = Store.version t.oracle + 1 ->
      Store.apply_entry t.oracle e;
      Hashtbl.replace t.oracle_snapshots (Store.version t.oracle) (Store.snapshot t.oracle);
      t.oracle_buffer <- rest;
      drain ()
    | e :: rest when e.Oplog.version <= Store.version t.oracle ->
      t.oracle_buffer <- rest;
      drain ()
    | _ -> ()
  in
  drain ()

let reexec_digest t ~version query =
  match Hashtbl.find_opt t.oracle_snapshots version with
  | None -> None
  | Some snap ->
    let scratch = Store.create () in
    Store.restore scratch snap;
    (match Query_eval.execute scratch query with
    | Error _ -> None
    | Ok { result; _ } -> Some (Canonical.result_digest result))

let check_result t ~version query ~digest =
  match reexec_digest t ~version query with
  | None -> None
  | Some honest -> Some (String.equal honest digest)

let on_pledge_submitted t f = t.pledge_taps <- t.pledge_taps @ [ f ]

(* -- Byzantine payload corruption ------------------------------------- *)

(* Flip one random bit of the encoded pledge in a read reply.  Either
   the frame no longer parses (dropped, counted) or it parses into a
   pledge whose signature can no longer verify — asserted here, since a
   single-bit flip that still verifies would be a signature forgery.
   The client must then reject the reply, exactly like any other
   tampering. *)
let maybe_bitflip t (r : Slave.read_reply option) =
  match r with
  | Some { Slave.result; pledge } when t.bitflip > 0.0 && Prng.bernoulli t.rng t.bitflip
    -> begin
    let bytes = Bytes.of_string (Wire.encode_pledge pledge) in
    let bit = Prng.int t.rng (8 * Bytes.length bytes) in
    let idx = bit / 8 in
    Bytes.set bytes idx
      (Char.chr (Char.code (Bytes.get bytes idx) lxor (1 lsl (bit mod 8))));
    Stats.incr t.stats "system.bitflips_injected";
    match Wire.decode_pledge (Bytes.to_string bytes) with
    | Error _ ->
      Stats.incr t.stats "system.bitflips_unparsable";
      None
    | Ok mutated ->
      let slave_public = Slave.public t.slaves.(pledge.Pledge.slave_id) in
      assert (
        (not (Pledge.verify_signature ~slave_public mutated))
        || String.equal (Wire.encode_pledge mutated) (Wire.encode_pledge pledge));
      Stats.incr t.stats "system.bitflips_delivered";
      Some { Slave.result; pledge = mutated }
  end
  | r -> r

(* -- exclusion & reassignment ----------------------------------------- *)

let alive_masters t =
  Array.to_list t.masters |> List.filter Master.is_alive |> List.map Master.id

let rec reassign_client t ~client_id ~excluding =
  (* The setup phase of §2: pick a (live) master, have it hand us a
     slave.  [excluding] lists slaves the client refuses (just
     excluded, or quarantined by its circuit breakers); crashed slaves
     are never handed out. *)
  let excluding = Hashtbl.fold (fun id () acc -> id :: acc) t.crashed_slaves excluding in
  match alive_masters t with
  | [] -> log t "system" "client %d cannot connect: no live master" client_id
  | alive ->
    let m_id = List.nth alive (Prng.int t.rng (List.length alive)) in
    let m = t.masters.(m_id) in
    (match Master.assign_slave m ~rng:t.rng ~excluding with
    | Some s ->
      t.client_master.(client_id) <- m_id;
      t.client_slave.(client_id) <- Slave.id s;
      Stats.incr t.stats "system.client_setups"
    | None ->
      (* This master has no usable slave; try adopting from any master
         with spares, otherwise leave the client pointed at the master
         with no slave (reads will retry). *)
      let donor =
        Array.to_list t.masters
        |> List.find_opt (fun other ->
               Master.is_alive other
               && Master.id other <> m_id
               && Master.assign_slave other ~rng:t.rng ~excluding <> None)
      in
      (match donor with
      | Some other ->
        t.client_master.(client_id) <- Master.id other;
        (match Master.assign_slave other ~rng:t.rng ~excluding with
        | Some s ->
          t.client_slave.(client_id) <- Slave.id s;
          Stats.incr t.stats "system.client_setups"
        | None -> ())
      | None -> log t "system" "client %d: no usable slave anywhere" client_id))

and exclude_slave t ~slave_id ~discovery =
  if not (Corrective.is_currently_excluded t.corrective ~slave_id) then begin
    let s = t.slaves.(slave_id) in
    Slave.exclude s;
    let m = t.masters.(t.slave_master.(slave_id)) in
    Master.remove_slave m ~slave_id;
    (* Contact every client connected to the malicious slave and re-home
       it (§3.5). *)
    let reassigned = ref 0 in
    Array.iteri
      (fun client_id assigned ->
        if assigned = slave_id then begin
          incr reassigned;
          reassign_client t ~client_id ~excluding:[ slave_id ]
        end)
      t.client_slave;
    (* §3.5 rollback: every client checks which recently accepted reads
       came from the convict. *)
    Array.iter (fun c -> ignore (Client.on_slave_excluded c ~slave_id)) t.clients;
    (* The exclusion is public: adaptive attackers read it as audit
       pressure (honest slaves ignore the signal). *)
    Array.iter Slave.note_peer_excluded t.slaves;
    Stats.incr t.stats "system.slaves_excluded";
    Stats.add t.stats "system.clients_reassigned" !reassigned;
    Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
      (Event.Slave_excluded
         {
           slave = slave_id;
           immediate =
             (match discovery with Corrective.Immediate -> true | Delayed -> false);
         });
    log t "system" "slave %d excluded (%s); %d clients re-homed" slave_id
      (match discovery with Corrective.Immediate -> "immediate" | Delayed -> "delayed")
      !reassigned;
    Corrective.record t.corrective
      {
        Corrective.time = Sim.now t.sim;
        slave_id;
        discovery;
        clients_reassigned = !reassigned;
      }
  end

(* -- construction ------------------------------------------------------ *)

let create ?(n_masters = 3) ?(slaves_per_master = 4) ?(n_clients = 10) ?(n_auditors = 1)
    ?(config = Config.default) ?(net = default_net) ?(seed = 1L)
    ?(client_max_latency = fun (_ : int) -> None) () =
  let config = Config.validate_exn config in
  if n_masters < 1 then invalid_arg "System.create: need at least one master";
  if slaves_per_master < 1 then invalid_arg "System.create: need at least one slave per master";
  if n_clients < 1 then invalid_arg "System.create: need at least one client";
  if n_auditors < 1 then invalid_arg "System.create: need at least one auditor";
  let sim = Sim.create () in
  let rng = Prng.create ~seed in
  let stats = Stats.create () in
  let trace = Trace.create () in
  let spans = Span.create ~stats () in
  let content = Content_key.create config.Config.scheme (Prng.split rng) in
  let directory = Directory.create () in
  let n_slaves = n_masters * slaves_per_master in
  let master_ids = List.init n_masters Fun.id in
  (* The broadcast group is created first; master delivery hooks are
     installed after the masters exist. *)
  let masters_ref = ref [||] in
  let group =
    Total_order.create sim ~rng:(Prng.split rng) ~members:master_ids
      ~latency:net.master_master ~loss:net.loss ~trace
      ~deliver:(fun ~member ~seq:_ payload ->
        let masters = !masters_ref in
        if Array.length masters > 0 then begin
          match payload with
          | Write { origin; write_id; op } ->
            Master.on_delivered_write masters.(member) ~origin ~write_id ~op
          | Slave_list { master; slaves } ->
            Master.record_peer_slaves masters.(member) ~master ~slaves
        end)
      ()
  in
  let masters =
    Array.init n_masters (fun id ->
        Master.create sim ~rng:(Prng.split rng) ~id ~config ~content
          ~order_write:(fun ~origin ~write_id op ->
            Total_order.broadcast group ~from:origin (Write { origin; write_id; op }))
          ~stats ~trace ~spans)
  in
  masters_ref := masters;
  Array.iter (fun m -> Directory.publish directory (Master.certificate m)) masters;
  let slaves =
    Array.init n_slaves (fun id ->
        Slave.create sim ~rng:(Prng.split rng) ~id ~config ~master_id:(id mod n_masters)
          ~stats ~trace ~spans)
  in
  let slave_master = Array.init n_slaves (fun id -> id mod n_masters) in
  let t_ref = ref None in
  let the = fun () -> match !t_ref with Some t -> t | None -> assert false in
  let auditors =
    Array.init n_auditors (fun _ ->
        Auditor.create sim ~config ~stats ~rng:(Prng.split rng)
          ~slave_public:(fun id ->
            if id >= 0 && id < n_slaves then Some (Slave.public slaves.(id)) else None)
          ~report:(fun pledge ->
            exclude_slave (the ()) ~slave_id:pledge.Pledge.slave_id
              ~discovery:Corrective.Delayed)
          ~trace ~spans)
  in
  let t =
    {
      sim;
      config;
      net;
      rng;
      stats;
      trace;
      spans;
      corrective = Corrective.create ();
      content;
      directory;
      masters;
      slaves;
      clients = [||];
      auditors;
      group;
      links = Hashtbl.create 64;
      partitioned = Hashtbl.create 8;
      crashed_slaves = Hashtbl.create 8;
      loss_override = None;
      latency_factor = 1.0;
      duplicate_override = 0.0;
      reorder_override = None;
      bitflip = 0.0;
      client_master = Array.make n_clients 0;
      client_slave = Array.make n_clients 0;
      slave_master;
      oracle = Store.create ();
      oracle_snapshots = Hashtbl.create 64;
      oracle_buffer = [];
      pledge_taps = [];
    }
  in
  t_ref := Some t;
  (* Version 0 = empty content. *)
  Hashtbl.replace t.oracle_snapshots 0 (Store.snapshot t.oracle);
  (* Hand each master its slave set; master->slave delivery goes over
     the mesh links. *)
  Array.iteri
    (fun s_id s ->
      let m = masters.(slave_master.(s_id)) in
      Master.add_slave m s ~send:(fun sl thunk -> send t (M (Master.id m)) (S (Slave.id sl)) thunk))
    slaves;
  (* Feed the auditors and the oracle from master commits (deduped by
     version inside each auditor / oracle_absorb). *)
  Array.iter
    (fun m ->
      Master.on_write_committed m (fun entry ~commit_time ->
          oracle_absorb t entry;
          Array.iter
            (fun auditor ->
              send t (M (Master.id m)) A (fun () ->
                  Auditor.on_committed_write auditor ~entry ~commit_time))
            t.auditors))
    masters;
  Array.iter Master.start_keepalive masters;
  (* §3: each master periodically broadcasts its slave list to the
     master set through the same total-order channel. *)
  Array.iter
    (fun m ->
      ignore
        (Secrep_sim.Process.periodic sim
           ~period:(5.0 *. config.Config.keepalive_period)
           ~jitter:(config.Config.keepalive_period /. 2.0)
           ~rng:(Prng.split rng)
           (fun () ->
             let id = Master.id m in
             if Master.is_alive m && Total_order.is_alive group id then
               Total_order.broadcast group ~from:id
                 (Slave_list { master = id; slaves = Master.slave_ids m }))))
    masters;
  (* Clients + setup phase. *)
  let make_client id =
    let env =
      {
        Client.now = (fun () -> Sim.now t.sim);
        schedule = (fun ~delay f -> ignore (Sim.schedule t.sim ~delay f));
        slave_id = (fun () -> t.client_slave.(id));
        peers =
          (fun () ->
            let mine = t.client_slave.(id) in
            let live =
              Array.to_list t.slaves
              |> List.filter (fun s ->
                     Slave.id s <> mine
                     && (not (Slave.is_excluded s))
                     && (not (Hashtbl.mem t.crashed_slaves (Slave.id s)))
                     && Slave.is_available s ~now:(Sim.now t.sim))
              |> List.map Slave.id
            in
            let same_master, others =
              List.partition (fun s -> t.slave_master.(s) = t.client_master.(id)) live
            in
            same_master @ others);
        public_of_slave = (fun s_id -> Slave.public t.slaves.(s_id));
        master_public = (fun () -> Master.public t.masters.(t.client_master.(id)));
        send_read =
          (fun ~slave_id ~request ~query ~reply ->
            let s = t.slaves.(slave_id) in
            Stats.add t.stats "system.query_bytes"
              (String.length (Secrep_store.Codec.encode_query query));
            send t (C id) (S slave_id) (fun () ->
                Slave.handle_read s ~client:id ~request ~query ~reply:(fun r ->
                    (match r with
                    | Some { Slave.result; pledge } ->
                      Stats.add t.stats "system.read_reply_bytes"
                        (String.length (Secrep_store.Codec.encode_result result)
                        + Wire.pledge_size pledge)
                    | None -> ());
                    let r = maybe_bitflip t r in
                    send t (S slave_id) (C id) (fun () -> reply r))));
        send_double_check =
          (fun ~query ~reply ->
            let m_id = t.client_master.(id) in
            let m = t.masters.(m_id) in
            send t (C id) (M m_id) (fun () ->
                Master.handle_double_check m ~client:id ~query ~reply:(fun r ->
                    send t (M m_id) (C id) (fun () -> reply r))));
        send_sensitive =
          (fun ~query ~reply ->
            let m_id = t.client_master.(id) in
            let m = t.masters.(m_id) in
            send t (C id) (M m_id) (fun () ->
                Master.handle_sensitive_read m ~client:id ~query ~reply:(fun r ->
                    send t (M m_id) (C id) (fun () -> reply r))));
        send_write =
          (fun ~op ~reply ->
            let m_id = t.client_master.(id) in
            let m = t.masters.(m_id) in
            send t (C id) (M m_id) (fun () ->
                Master.handle_write m ~client:id ~op ~reply:(fun r ->
                    send t (M m_id) (C id) (fun () -> reply r))));
        forward_pledge =
          (fun pledge ->
            if t.config.Config.audit_enabled then begin
              (* With several auditors (§3.4: "add extra auditors"),
                 pledges shard deterministically by query digest. *)
              let shard =
                if Array.length t.auditors = 1 then 0
                else begin
                  let digest = Canonical.query_digest pledge.Pledge.query in
                  Char.code digest.[0] mod Array.length t.auditors
                end
              in
              let auditor = t.auditors.(shard) in
              Stats.add t.stats "system.pledge_bytes" (Wire.pledge_size pledge);
              send t (C id) A (fun () ->
                  List.iter (fun tap -> tap pledge) t.pledge_taps;
                  Auditor.submit_pledge auditor pledge)
            end);
        report_proof =
          (fun pledge ->
            let s_id = pledge.Pledge.slave_id in
            (* A double-check disagreement is already strong suspicion,
               even when the master later rules it inconclusive. *)
            Array.iter
              (fun a -> Auditor.note_suspicion a ~slave:s_id ~amount:1.5)
              t.auditors;
            let m_id = t.slave_master.(s_id) in
            let m = t.masters.(m_id) in
            send t (C id) (M m_id) (fun () ->
                if Master.is_alive m then begin
                  match
                    Master.handle_proof m ~proof:pledge
                      ~slave_public:(Slave.public t.slaves.(s_id))
                  with
                  | Master.Slave_guilty ->
                    exclude_slave t ~slave_id:s_id ~discovery:Corrective.Immediate
                  | Master.Pledge_invalid _ -> Stats.incr t.stats "system.invalid_proofs"
                  | Master.Inconclusive _ -> Stats.incr t.stats "system.inconclusive_proofs"
                end));
        note_nonce_reject =
          (fun ~slave ->
            (* Replay suspicion, not proof: bump the auditors' score so
               adaptive sampling leans on the slave. *)
            Stats.incr t.stats "system.nonce_rejects";
            Array.iter
              (fun a -> Auditor.note_suspicion a ~slave ~amount:1.0)
              t.auditors);
        note_stale_reject =
          (fun ~slave ->
            (* A stale pledge at read time is the client-side face of a
               replayed or frozen reply — a pledge the auditor will
               never see, because the client refuses to accept or
               forward it.  Evidence, not proof: feed it to the
               adaptive sampler only, so probation (never exclusion)
               acts, and the seed event stream is untouched with the
               flag off. *)
            if t.config.Config.audit_adaptive then begin
              Stats.incr t.stats "system.stale_reject_reports";
              Array.iter
                (fun a -> Auditor.note_suspicion a ~slave ~amount:0.5)
                t.auditors
            end);
        reconnect =
          (fun ~avoid ->
            let excluding = avoid @ Corrective.currently_excluded t.corrective in
            reassign_client t ~client_id:id ~excluding);
      }
    in
    Client.create ~id ~rng:(Prng.split rng) ~config ~env ~stats ~trace ~spans
      ?max_latency_override:(client_max_latency id) ()
  in
  t.clients <- Array.init n_clients make_client;
  (* Simulator self-profiling: sampled every virtual second so a
     metrics dump shows queue depth, dispatch rate and aggregate CPU
     busy time without any external profiler. *)
  let last_executed = ref 0 in
  ignore
    (Secrep_sim.Process.periodic sim ~period:1.0 (fun () ->
         Stats.set_gauge stats "sim.pending_events" (float_of_int (Sim.pending sim));
         let executed = Sim.executed_events sim in
         Stats.add stats "sim.events_dispatched" (executed - !last_executed);
         last_executed := executed;
         let busy acc w = acc +. Work_queue.busy_seconds w in
         let total = Array.fold_left (fun acc m -> busy acc (Master.work m)) 0.0 masters in
         let total = Array.fold_left (fun acc s -> busy acc (Slave.work s)) total slaves in
         let total =
           Array.fold_left (fun acc a -> busy acc (Auditor.work a)) total t.auditors
         in
         Stats.set_gauge stats "sim.process_busy_seconds" total));
  (* Setup phase: verify certificates, then connect (§2). *)
  let certs = Directory.lookup directory ~content_id:(content_id t) in
  List.iter
    (fun cert ->
      if not (Certificate.verify ~content_public:(Content_key.public content) cert) then
        failwith "System.create: invalid master certificate in directory")
    certs;
  for id = 0 to n_clients - 1 do
    reassign_client t ~client_id:id ~excluding:[]
  done;
  t

(* -- running & operations ---------------------------------------------- *)

let run_until t time = Sim.run ~until:time t.sim
let run_for t dt = Sim.run ~until:(Sim.now t.sim +. dt) t.sim

let load_content t pairs =
  let base = Store.version (Master.store t.masters.(0)) in
  let entries =
    List.mapi
      (fun i (key, doc) -> { Oplog.version = base + 1 + i; op = Oplog.Put { key; doc } })
      pairs
  in
  (* Apply the bootstrap once: every replica still at [base] adopts
     the resulting immutable map instead of replaying the entries. *)
  let preapplied = Store.create () in
  Store.assign preapplied ~from:(Master.store t.masters.(0));
  List.iter (Store.apply_entry preapplied) entries;
  Array.iter (fun m -> Master.bootstrap m ~preapplied entries) t.masters;
  let target = base + List.length pairs in
  Array.iter
    (fun s ->
      let m_id = t.slave_master.(Slave.id s) in
      let keepalive =
        Keepalive.make
          ~master_key:(Master.keypair t.masters.(m_id))
          ~content_id:(content_id t) ~master_id:m_id ~version:target ~now:(Sim.now t.sim)
      in
      Slave.receive_update ~preapplied s ~entries ~keepalive)
    t.slaves;
  (* Back-dated commit times let the auditor advance through the
     bootstrap versions immediately. *)
  let old =
    Sim.now t.sim -. t.config.Config.max_latency -. t.config.Config.audit_lag_slack -. 1.0
  in
  List.iter
    (fun entry ->
      Array.iter (fun a -> Auditor.on_committed_write a ~entry ~commit_time:old) t.auditors;
      oracle_absorb t entry)
    entries

let read t ~client:client_id ?level ?mode query ~on_done =
  let c = t.clients.(client_id) in
  Client.read c ?level ?mode query ~on_done:(fun report ->
      (match report.Client.outcome with
      | `Accepted result ->
        Histogram.add (Stats.histogram t.stats "system.read_latency") report.Client.latency;
        let digest = Canonical.result_digest result in
        (match check_result t ~version:report.Client.version query ~digest with
        | Some true -> Stats.incr t.stats "system.accepted_correct"
        | Some false -> Stats.incr t.stats "system.accepted_wrong"
        | None -> ())
      | `Served_by_master _ ->
        Histogram.add (Stats.histogram t.stats "system.read_latency") report.Client.latency;
        Stats.incr t.stats "system.accepted_correct"
      | `Gave_up -> ());
      on_done report)

let write t ~client:client_id op ~on_done =
  Client.write t.clients.(client_id) op ~on_done:(fun ack ->
      (match ack with
      | Master.Committed _ -> Stats.incr t.stats "system.writes_committed_acked"
      | Master.Denied _ -> Stats.incr t.stats "system.writes_denied");
      on_done ack)

let set_slave_behavior t ~slave behavior =
  Slave.set_behavior t.slaves.(slave) behavior;
  log t "system" "slave %d behavior: %s" slave (Fault.describe behavior)

let readmit_slave t ~slave_id =
  if slave_id < 0 || slave_id >= Array.length t.slaves then Error "unknown slave"
  else if not (Corrective.is_currently_excluded t.corrective ~slave_id) then
    Error "slave is not currently excluded"
  else begin
    match alive_masters t with
    | [] -> Error "no live master to re-home the slave"
    | m_id :: _ ->
      let m = t.masters.(m_id) in
      let s = t.slaves.(slave_id) in
      (* The owner recovers the host to a safe state: full checkpoint
         from the master plus a fresh keep-alive. *)
      let checkpoint = Store.to_bytes (Master.store m) in
      let keepalive =
        Keepalive.make ~master_key:(Master.keypair m) ~content_id:(content_id t)
          ~master_id:m_id
          ~version:(Store.version (Master.store m))
          ~now:(Sim.now t.sim)
      in
      (match Slave.reinstate s ~checkpoint ~keepalive with
      | Error _ as e -> e
      | Ok () ->
        Corrective.readmit t.corrective ~slave_id ~time:(Sim.now t.sim);
        t.slave_master.(slave_id) <- m_id;
        Master.add_slave m s ~send:(fun sl thunk ->
            send t (M m_id) (S (Slave.id sl)) thunk);
        Stats.incr t.stats "system.slaves_readmitted";
        log t "system" "slave %d recovered and readmitted under master %d" slave_id m_id;
        Ok ())
  end

let crash_master t m_id =
  let m = t.masters.(m_id) in
  if Master.is_alive m then begin
    Master.crash m;
    Total_order.crash t.group m_id;
    Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
      (Event.Node_crashed { node = node_name (M m_id) });
    (* Remaining masters divide the dead master's slave set (§3). *)
    let heirs = alive_masters t in
    (match heirs with
    | [] -> log t "system" "last master crashed; system is down"
    | heir0 :: _ ->
      (* Survivors know the dead master's slave set from its periodic
         broadcast (§3); fall back to direct inspection only if the
         crash happened before the first announcement. *)
      let gossiped = Master.peer_slaves t.masters.(heir0) ~of_:m_id in
      let orphan_ids = if gossiped <> [] then gossiped else Master.slave_ids m in
      List.iteri
        (fun i s_id ->
          let heir_id = List.nth heirs (i mod List.length heirs) in
          let heir = t.masters.(heir_id) in
          t.slave_master.(s_id) <- heir_id;
          Master.add_slave heir t.slaves.(s_id) ~send:(fun sl thunk ->
              send t (M heir_id) (S (Slave.id sl)) thunk))
        orphan_ids;
      (* Clients of the dead master redo the setup phase (§3). *)
      Array.iteri
        (fun client_id m_of_c ->
          if m_of_c = m_id then
            reassign_client t ~client_id
              ~excluding:(Corrective.currently_excluded t.corrective))
        t.client_master)
  end

(* -- chaos hooks: partitions, benign crash-recover, net degradation --- *)

(* A link is up iff neither endpoint is partitioned; recompute on every
   change so overlapping cuts compose (a link between two partitioned
   endpoints stays down until *both* heal).  Returns whether the
   endpoint's state actually changed. *)
let set_endpoint_up t ep ~up =
  let was_down = Hashtbl.mem t.partitioned ep in
  if up then Hashtbl.remove t.partitioned ep else Hashtbl.replace t.partitioned ep ();
  Hashtbl.iter
    (fun (a, b) l ->
      if a = ep || b = ep then
        Link.set_up l
          (not (Hashtbl.mem t.partitioned a || Hashtbl.mem t.partitioned b)))
    t.links;
  (* Masters also sit on the total-order mesh: cut those links too so a
     partitioned master neither orders writes nor hears heartbeats. *)
  (match ep with
  | M m_id ->
    Array.iteri
      (fun other _ ->
        if other <> m_id then begin
          let pair_up =
            not
              (Hashtbl.mem t.partitioned (M m_id) || Hashtbl.mem t.partitioned (M other))
          in
          (try Link.set_up (Total_order.link_between t.group m_id other) pair_up
           with Not_found -> ());
          (try Link.set_up (Total_order.link_between t.group other m_id) pair_up
           with Not_found -> ())
        end)
      t.masters
  | S _ | C _ | A -> ());
  let changed = was_down = up in
  if changed then begin
    Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
      (Event.Partition { target = node_name ep; up });
    log t "system" "%s network %s" (node_name ep) (if up then "healed" else "cut")
  end;
  changed

let set_master_connectivity t ~master_id ~up =
  ignore (set_endpoint_up t (M master_id) ~up)

let set_client_connectivity t ~client_id ~up = ignore (set_endpoint_up t (C client_id) ~up)
let set_auditor_connectivity t ~up = ignore (set_endpoint_up t A ~up)
let is_crashed t ~slave_id = Hashtbl.mem t.crashed_slaves slave_id

let set_slave_connectivity t ~slave_id ~up =
  let changed = set_endpoint_up t (S slave_id) ~up in
  (* A healed slave is behind; the next keep-alive triggers its resync.
     Recovery convergence is asserted from this event, so it is only
     emitted for slaves that are actually back in service. *)
  if
    changed && up
    && (not (is_crashed t ~slave_id))
    && not (Slave.is_excluded t.slaves.(slave_id))
  then
    Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
      (Event.Node_recovered
         { node = node_name (S slave_id); version = Slave.version t.slaves.(slave_id) })

(* Benign fail-stop crash: the host vanishes from the network but its
   owner is not accused of anything — no Corrective entry, unlike
   [exclude_slave].  Recovery wipes the host and reinstates it from a
   master checkpoint (§3.5's recovery path, without the exclusion). *)
let crash_slave t ~slave_id =
  if not (Hashtbl.mem t.crashed_slaves slave_id) then begin
    Hashtbl.replace t.crashed_slaves slave_id ();
    ignore (set_endpoint_up t (S slave_id) ~up:false);
    Stats.incr t.stats "system.slave_crashes";
    Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
      (Event.Node_crashed { node = node_name (S slave_id) });
    log t "system" "slave %d crashed (benign)" slave_id
  end

let recover_slave t ~slave_id =
  if slave_id < 0 || slave_id >= Array.length t.slaves then Error "unknown slave"
  else if Corrective.is_currently_excluded t.corrective ~slave_id then
    Error "slave is excluded; use readmit_slave"
  else if not (Hashtbl.mem t.crashed_slaves slave_id) then Error "slave is not crashed"
  else begin
    match alive_masters t with
    | [] -> Error "no live master to restore from"
    | alive ->
      let m_id =
        let cur = t.slave_master.(slave_id) in
        if Master.is_alive t.masters.(cur) then cur else List.hd alive
      in
      let m = t.masters.(m_id) in
      let s = t.slaves.(slave_id) in
      let checkpoint = Store.to_bytes (Master.store m) in
      let keepalive =
        Keepalive.make ~master_key:(Master.keypair m) ~content_id:(content_id t)
          ~master_id:m_id
          ~version:(Store.version (Master.store m))
          ~now:(Sim.now t.sim)
      in
      (match Slave.reinstate s ~checkpoint ~keepalive with
      | Error _ as e -> e
      | Ok () ->
        Hashtbl.remove t.crashed_slaves slave_id;
        ignore (set_endpoint_up t (S slave_id) ~up:true);
        t.slave_master.(slave_id) <- m_id;
        Master.add_slave m s ~send:(fun sl thunk -> send t (M m_id) (S (Slave.id sl)) thunk);
        Stats.incr t.stats "system.slave_recoveries";
        Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
          (Event.Node_recovered { node = node_name (S slave_id); version = Slave.version s });
        log t "system" "slave %d recovered from crash under master %d" slave_id m_id;
        Ok ())
  end

let set_loss t loss =
  (match loss with
  | Some l when l < 0.0 || l >= 1.0 -> invalid_arg "System.set_loss: loss must be in [0, 1)"
  | Some _ | None -> ());
  t.loss_override <- loss;
  let effective = match loss with Some l -> l | None -> t.net.loss in
  Hashtbl.iter (fun _ l -> Link.set_loss l effective) t.links;
  Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
    (Event.Net_degraded
       {
         loss = (match loss with Some l -> l | None -> 0.0);
         latency_factor = t.latency_factor;
       })

let set_latency_factor t factor =
  if factor <= 0.0 then invalid_arg "System.set_latency_factor: factor must be positive";
  t.latency_factor <- factor;
  Hashtbl.iter
    (fun (a, b) l -> Link.set_latency l (Latency.scale (latency_for t a b) factor))
    t.links;
  Trace.emit t.trace ~time:(Sim.now t.sim) ~source:"system"
    (Event.Net_degraded
       {
         loss = (match t.loss_override with Some l -> l | None -> 0.0);
         latency_factor = factor;
       })

let latency_factor t = t.latency_factor

(* -- Byzantine delivery faults ---------------------------------------- *)

let set_duplicate t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "System.set_duplicate: must be in [0, 1)";
  t.duplicate_override <- p;
  Hashtbl.iter (fun _ l -> Link.set_duplicate l p) t.links;
  log t "system" "byzantine: duplicate probability %.3f" p

let duplicate t = t.duplicate_override

let set_reorder t ~burst ~window =
  (match burst with
  | 0 -> ()
  | b when b >= 2 ->
    if window <= 0.0 then invalid_arg "System.set_reorder: window must be positive"
  | _ -> invalid_arg "System.set_reorder: burst must be 0 (off) or >= 2");
  t.reorder_override <- (if burst = 0 then None else Some (burst, window));
  Hashtbl.iter (fun _ l -> Link.set_reorder l ~burst ~window) t.links;
  log t "system" "byzantine: reorder burst %d (window %.3fs)" burst window

let reorder t = t.reorder_override

let set_bitflip t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "System.set_bitflip: must be in [0, 1)";
  t.bitflip <- p;
  log t "system" "byzantine: pledge bit-flip probability %.3f" p

let bitflip t = t.bitflip
