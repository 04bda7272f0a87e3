(* The sharded deployment: K content items, each served by an
   unmodified single-content protocol instance, laid out over one
   shared pool of slave hosts.

   Two design rules keep this layer honest:

   - Every shard is a stock [System.t] advanced in lockstep time slices
     by the deployment scheduler.  The deployment never draws from a
     shard's PRNG and never injects events into a shard beyond the
     documented chaos hooks, so a shard's event stream is bit-identical
     to the stream of a standalone single-content system created with
     the same derived seed — the property the differential sharding
     tests pin down.

   - All cross-shard coupling is explicit: the host pool (rendezvous
     placement + host-level chaos that fans out to every co-located
     replica).  Each shard's auditor keeps its own queue bound.

   Domain-parallel execution ([domains > 1]) adds a third rule: during
   a slice a shard touches only state owned by that shard — its own
   [System.t], its own slot->host mapping, and its own pending event
   buffer — plus the chaos transition log, read-only while the
   scheduler runs.  Everything cross-shard (tap delivery, the
   deployment trace, the [host_is_alive] view) happens on the
   coordinator at slice barriers, in an order derived purely from
   [(sim_time, shard, seq)] — which is why the parallel scheduler
   produces byte-identical streams to the sequential one. *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog

type shard = {
  index : int;
  system : System.t;
  content_id : string;
  keys : string array;
  hosts : int array;  (* slot (local slave id) -> pool host *)
}

(* Per-shard outbox for everything that must cross the shard boundary:
   the shard's own trace records (for tap delivery) and the deployment
   events its rebalances produce.  Only the domain executing the shard
   appends during a slice; only the coordinator drains, at barriers.
   [seq] is the per-shard emission counter that makes the merge order
   [(time, shard, seq)] total and identical in both scheduler modes. *)
type outbox = {
  mutable buf : (int * Trace.record) list;  (* newest first *)
  mutable seq : int;
  mutable merged : int;  (* records merged in the current parallel window *)
}

(* Host-level chaos is recorded as a transition log rather than flipped
   in a shared array: [alive_at] is a pure function of (log, time), so
   every shard — on any domain — observes the same aliveness history
   regardless of how far its siblings have run.  Entries are appended
   by [crash_host]/[recover_host] at call time (i.e. while the
   scheduler is NOT running), newest first. *)
type transition = { at : float; host : int; alive : bool }

type t = {
  n_shards : int;
  replication : int;
  pool_size : int;
  provision_delay : float;
  auto_rebalance : bool;
  slice : float;
  domains : int;
  shards : shard array;
  trace : Trace.t;  (* deployment-level placement / rebalance events *)
  mutable transitions : transition list;  (* newest call first *)
  outboxes : outbox array;
  mutable taps : (shard:int -> Trace.record -> unit) list;
  mutable now : float;
}

(* -- seed derivation ---------------------------------------------------

   Exposed so the differential tests can construct the standalone
   reference systems from exactly the same inputs.  The golden-ratio
   stride is the SplitMix64 increment: adjacent shards land far apart
   in seed space. *)

let golden = 0x9E3779B97F4A7C15L

let shard_seed ~seed k = Int64.add seed (Int64.mul (Int64.of_int (k + 1)) golden)
let shard_content_seed ~seed k = Int64.add (shard_seed ~seed k) 1L

let all_hosts pool_size = List.init pool_size (fun h -> h)

(* Latest transition at or before [time] wins; among equal times the
   latest call wins (the log is newest-call-first, so the first match
   with a strictly later [at] replaces it).  No transition = alive. *)
let alive_at t ~time host =
  let best = ref None in
  List.iter
    (fun tr ->
      if tr.host = host && tr.at <= time then
        match !best with
        | Some (at, _) when at >= tr.at -> ()
        | _ -> best := Some (tr.at, tr.alive))
    t.transitions;
  match !best with Some (_, alive) -> alive | None -> true

let deliver t ~shard record = List.iter (fun tap -> tap ~shard record) t.taps

(* Coordinator-context emission (create time, window boundaries): the
   scheduler is not running, so writing the shared trace and calling
   the taps directly is safe. *)
let emit_deployment t ~shard ~time event =
  Trace.emit t.trace ~time ~source:"deployment" event;
  deliver t ~shard { Trace.time; source = "deployment"; event }

(* Shard-context emission (inside a slice, possibly on a worker
   domain): append to the shard's own outbox; the coordinator writes
   the shared trace and runs the taps at the next barrier. *)
let enqueue t ~shard record =
  let ob = t.outboxes.(shard) in
  ob.buf <- (ob.seq, record) :: ob.buf;
  ob.seq <- ob.seq + 1

let enqueue_deployment t ~shard ~time event =
  enqueue t ~shard { Trace.time; source = "deployment"; event }

(* Drain every outbox and replay the records in [(time, shard, seq)]
   order — the exact total order the sequential scheduler produces.
   Deployment-sourced records (rebalances) enter the shared trace
   here; every record reaches the taps here. *)
let flush t =
  let all = ref [] in
  Array.iteri
    (fun k ob ->
      List.iter (fun (seq, r) -> all := (r.Trace.time, k, seq, r) :: !all) ob.buf;
      ob.merged <- ob.merged + List.length ob.buf;
      ob.buf <- [])
    t.outboxes;
  let merged =
    List.sort
      (fun (t1, k1, s1, _) (t2, k2, s2, _) ->
        match Float.compare t1 t2 with
        | 0 -> ( match Int.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c)
        | c -> c)
      !all
  in
  List.iter
    (fun (_, k, _, (r : Trace.record)) ->
      if String.equal r.Trace.source "deployment" then
        Trace.emit t.trace ~time:r.Trace.time ~source:r.Trace.source r.Trace.event;
      deliver t ~shard:k r)
    merged

(* Re-home [slot] of [sh] off [dead_host]: pick the best live host not
   already carrying a replica of this content, update the mapping, and
   record the move.  Returns the replacement (None = pool exhausted,
   the replica stays homeless until a host recovers).  Runs in shard
   context: aliveness comes from the transition log at the shard's own
   clock, the move event goes through the shard's outbox. *)
let rebalance_slot t sh ~slot ~reason =
  let dead = sh.hosts.(slot) in
  let time = Sim.now (System.sim sh.system) in
  let live = List.filter (fun h -> alive_at t ~time h) (all_hosts t.pool_size) in
  match
    Placement.replacement ~content_id:sh.content_id ~hosts:live
      ~current:(Array.to_list sh.hosts) ~dead
  with
  | None -> None
  | Some fresh ->
    sh.hosts.(slot) <- fresh;
    enqueue_deployment t ~shard:sh.index ~time
      (Event.Shard_rebalanced
         { shard = sh.index; slot; from_host = dead; to_host = fresh; reason });
    Some fresh

let create ~n_shards ?(n_masters = 1) ?(replication_factor = 3) ?(n_clients = 2)
    ?pool_size ?(config = Config.default) ?net ?(seed = 1L) ?(items_per_shard = 0)
    ?(auto_rebalance = true) ?(domains = 0) () =
  if n_shards < 1 then invalid_arg "Deployment.create: n_shards must be at least 1";
  if domains < 0 then invalid_arg "Deployment.create: domains must be non-negative";
  let slaves_per_master = max 1 (replication_factor / max 1 n_masters) in
  let replication = n_masters * slaves_per_master in
  let pool_size =
    match pool_size with Some p -> max p replication | None -> (2 * replication) + 2
  in
  let provision_delay = 2.0 *. config.Config.keepalive_period in
  let slice = Float.max config.Config.keepalive_period 0.5 in
  let trace = Trace.create () in
  let outboxes = Array.init n_shards (fun _ -> { buf = []; seq = 0; merged = 0 }) in
  let t =
    {
      n_shards;
      replication;
      pool_size;
      provision_delay;
      auto_rebalance;
      slice;
      domains;
      shards = [||];
      trace;
      transitions = [];
      outboxes;
      taps = [];
      now = 0.0;
    }
  in
  let shards =
    Array.init n_shards (fun k ->
        let system =
          System.create ~n_masters ~slaves_per_master ~n_clients ~config ?net
            ~seed:(shard_seed ~seed k) ()
        in
        let keys =
          if items_per_shard > 0 then begin
            let content =
              Catalog.product_catalog
                (Prng.create ~seed:(shard_content_seed ~seed k))
                ~n:items_per_shard
            in
            System.load_content system content;
            Array.of_list (List.map fst content)
          end
          else [||]
        in
        let content_id = System.content_id system in
        let placed =
          Placement.assign ~content_id ~hosts:(all_hosts pool_size) ~replicas:replication
        in
        { index = k; system; content_id; keys; hosts = Array.of_list placed })
  in
  let t = { t with shards } in
  Array.iter
    (fun sh ->
      Array.iteri
        (fun slot host ->
          emit_deployment t ~shard:sh.index ~time:0.0
            (Event.Shard_assigned { shard = sh.index; host; slot }))
        sh.hosts;
      (* Queue each shard's live stream for the deployment taps, and
         react to exclusions: §3.5 re-homing moves the excluded replica
         to a fresh host and reinstates the process there after the
         provisioning delay.  The handler runs on whatever domain is
         executing the shard, so it touches shard-owned state only. *)
      let sys = sh.system in
      Trace.on_emit (System.trace sys) (fun r ->
          enqueue t ~shard:sh.index r;
          match r.Trace.event with
          | Event.Slave_excluded { slave = slot; _ } when t.auto_rebalance ->
            (match rebalance_slot t sh ~slot ~reason:"exclusion" with
            | None -> ()
            | Some _fresh ->
              ignore
                (Sim.schedule (System.sim sys) ~delay:t.provision_delay (fun () ->
                     (* The owner "recovers the host to a safe state"
                        before readmission: the fresh host starts
                        honest. *)
                     System.set_slave_behavior sys ~slave:slot Fault.Honest;
                     ignore (System.readmit_slave sys ~slave_id:slot))))
          | _ -> ()))
    shards;
  t

(* -- accessors ---------------------------------------------------------- *)

let n_shards t = t.n_shards
let replication t = t.replication
let pool_size t = t.pool_size
let trace t = t.trace
let system t k = t.shards.(k).system
let keys t k = t.shards.(k).keys
let hosts_of_shard t k = Array.copy t.shards.(k).hosts
let host_is_alive t h = alive_at t ~time:t.now h
let on_event t tap = t.taps <- tap :: t.taps

(* -- the lockstep scheduler --------------------------------------------

   One shared bounded scheduler advances every shard in [slice]-sized
   time windows: no shard can run ahead of its siblings by more than a
   slice, so host-level chaos observes a consistent global clock, while
   each shard's internal event order is exactly what a standalone run
   would produce.

   Both modes run the same code per shard and flush the same outboxes
   at every slice barrier; the only difference is which domain executes
   a shard's slice.  Round-robin shard ownership is static (shard i on
   worker [i mod w]), so a shard's whole history runs on one domain and
   needs no per-shard synchronization at all — the barrier's mutex is
   the only cross-domain handoff, and it orders everything the
   coordinator reads. *)

let run_slices_sequential t time =
  while t.now < time do
    let next = Float.min (t.now +. t.slice) time in
    Array.iter (fun sh -> Sim.run ~until:next (System.sim sh.system)) t.shards;
    t.now <- next;
    flush t
  done

let run_parallel t time =
  let w = min t.domains t.n_shards in
  Array.iter (fun ob -> ob.merged <- 0) t.outboxes;
  (* Window-open bookkeeping, at a simulated time every run shares. *)
  for wid = 0 to w - 1 do
    let mine = ref 0 in
    for i = 0 to t.n_shards - 1 do
      if i mod w = wid then incr mine
    done;
    emit_deployment t ~shard:(-1) ~time:t.now
      (Event.Domain_started { domain = wid; shards = !mine })
  done;
  let run_mine wid target =
    let i = ref wid in
    while !i < t.n_shards do
      Sim.run ~until:target (System.sim t.shards.(!i).system);
      i := !i + w
    done
  in
  let m = Mutex.create () in
  let slice_ready = Condition.create () in
  let slice_done = Condition.create () in
  let gen = ref 0 and arrived = ref 0 and target = ref t.now in
  let stop = ref false and failure = ref None in
  let worker wid () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock m;
      while !gen = !seen && not !stop do
        Condition.wait slice_ready m
      done;
      let stopping = !stop and g = !gen and tgt = !target in
      Mutex.unlock m;
      if stopping then running := false
      else begin
        seen := g;
        (try run_mine wid tgt
         with e ->
           Mutex.lock m;
           if !failure = None then failure := Some e;
           Mutex.unlock m);
        Mutex.lock m;
        incr arrived;
        if !arrived = w - 1 then Condition.signal slice_done;
        Mutex.unlock m
      end
    done
  in
  let doms = Array.init (w - 1) (fun j -> Domain.spawn (worker (j + 1))) in
  let halt () =
    Mutex.lock m;
    stop := true;
    Condition.broadcast slice_ready;
    Mutex.unlock m;
    Array.iter Domain.join doms
  in
  (try
     while t.now < time do
       let next = Float.min (t.now +. t.slice) time in
       Mutex.lock m;
       target := next;
       arrived := 0;
       incr gen;
       Condition.broadcast slice_ready;
       Mutex.unlock m;
       run_mine 0 next;
       Mutex.lock m;
       while !arrived < w - 1 do
         Condition.wait slice_done m
       done;
       Mutex.unlock m;
       (match !failure with Some e -> raise e | None -> ());
       t.now <- next;
       flush t
     done
   with e ->
     halt ();
     raise e);
  halt ();
  Array.iteri
    (fun k ob ->
      emit_deployment t ~shard:k ~time:t.now
        (Event.Shard_merged { shard = k; events = ob.merged });
      ob.merged <- 0)
    t.outboxes

let run_until t time =
  if t.now < time then
    if t.domains > 1 && t.n_shards > 1 then run_parallel t time
    else run_slices_sequential t time

(* -- client operations, routed by shard index ---------------------------- *)

let read t ~shard ~client query ~on_done =
  System.read t.shards.(shard).system ~client query ~on_done

let write t ~shard ~client op ~on_done =
  System.write t.shards.(shard).system ~client op ~on_done

let schedule t ~shard ~time f =
  ignore (Sim.schedule_at (System.sim t.shards.(shard).system) ~time f)

(* -- host-level chaos ---------------------------------------------------

   Each action schedules a per-shard thunk at the same absolute time on
   every shard's own simulator, so the effect lands at exactly [at] in
   each stream regardless of slice boundaries.  The aliveness change is
   appended to the shared transition log here, at injection time —
   chaos is injected between scheduler runs, never from inside one —
   and every shard thereafter reads the same pure [alive_at] view. *)

let slots_on sh host =
  let acc = ref [] in
  Array.iteri (fun slot h -> if h = host then acc := slot :: !acc) sh.hosts;
  List.rev !acc

let schedule_on_all t ~at f =
  Array.iter
    (fun sh -> ignore (Sim.schedule_at (System.sim sh.system) ~time:at (fun () -> f sh)))
    t.shards

let crash_host t ~at host =
  t.transitions <- { at; host; alive = false } :: t.transitions;
  schedule_on_all t ~at (fun sh ->
      List.iter
        (fun slot ->
          System.crash_slave sh.system ~slave_id:slot;
          if t.auto_rebalance then
            (* Re-provision on a fresh host unless the old one came back
               first (short churn windows recover in place). *)
            ignore
              (Sim.schedule (System.sim sh.system) ~delay:t.provision_delay (fun () ->
                   let now = Sim.now (System.sim sh.system) in
                   if (not (alive_at t ~time:now host)) && sh.hosts.(slot) = host then begin
                     match rebalance_slot t sh ~slot ~reason:"crash" with
                     | None -> ()
                     | Some _fresh -> ignore (System.recover_slave sh.system ~slave_id:slot)
                   end)))
        (slots_on sh host))

let recover_host t ~at host =
  t.transitions <- { at; host; alive = true } :: t.transitions;
  schedule_on_all t ~at (fun sh ->
      List.iter
        (fun slot ->
          if System.is_crashed sh.system ~slave_id:slot then
            ignore (System.recover_slave sh.system ~slave_id:slot))
        (slots_on sh host))

let cut_host t ~at host =
  schedule_on_all t ~at (fun sh ->
      List.iter
        (fun slot -> System.set_slave_connectivity sh.system ~slave_id:slot ~up:false)
        (slots_on sh host))

let heal_host t ~at host =
  schedule_on_all t ~at (fun sh ->
      List.iter
        (fun slot -> System.set_slave_connectivity sh.system ~slave_id:slot ~up:true)
        (slots_on sh host))

(* -- shard-tagged JSONL ------------------------------------------------- *)

let tagged_line ~shard (r : Trace.record) =
  let extra =
    if List.mem_assoc "shard" (Event.fields r.Trace.event) then []
    else [ ("shard", Export.Json.Int shard) ]
  in
  Export.event_line ~extra ~time:r.Trace.time ~source:r.Trace.source r.Trace.event

let shard_of_line line =
  match Export.Json.parse line with
  | Error _ -> None
  | Ok json -> (
    match Export.Json.member "shard" json with
    | Some (Export.Json.Int k) -> Some k
    | _ -> None)
