module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Deployment = Secrep_shard.Deployment
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Canonical = Secrep_store.Canonical

type accepted_read = {
  time : float;
  client : int;
  slave : int;
  version : int;
  wrong : bool;
}

type run_result = {
  scenario : Scenario.t;
  events : Trace.record list;
  accepted : accepted_read list;
  end_time : float;
  pledges : Secrep_core.Pledge.t list;
  reexec : version:int -> Query.t -> string option;
  slave_public : int -> Secrep_crypto.Sig_scheme.public option;
}

let net_profile = function
  | Scenario.Lan -> System.lan_net
  | Scenario.Wan -> System.default_net
  | Scenario.Lossy p -> { System.lan_net with System.loss = p }

(* Subscribe each shard's own trace, so streams stay pure System
   streams (deployment placement events live in the deployment trace,
   not here): the ring in [System.trace] may overwrite old records,
   subscribers see everything.  Every pledge the auditor side receives
   is recorded in delivery order too: the differential-audit invariant
   replays this exact stream through both offline drivers. *)
let capture d =
  let k = Deployment.n_shards d in
  let events_rev = Array.make k [] in
  let pledges_rev = Array.make k [] in
  for i = 0 to k - 1 do
    let sys = Deployment.system d i in
    Trace.on_emit (System.trace sys) (fun r -> events_rev.(i) <- r :: events_rev.(i));
    System.on_pledge_submitted sys (fun p -> pledges_rev.(i) <- p :: pledges_rev.(i))
  done;
  fun ~shard scenario accepted ->
    let sys = Deployment.system d shard in
    {
      scenario;
      events = List.rev events_rev.(shard);
      accepted;
      end_time = Sim.now (System.sim sys);
      pledges = List.rev pledges_rev.(shard);
      reexec = (fun ~version query -> System.reexec_digest sys ~version query);
      slave_public =
        (fun slave_id ->
          if slave_id >= 0 && slave_id < System.n_slaves sys then
            Some (Secrep_core.Slave.public (System.slave sys slave_id))
          else None);
    }

(* -- execution ---------------------------------------------------------

   Every scenario runs on a [Secrep_shard.Deployment]: K unmodified
   single-content instances over a shared host pool, advanced in
   lockstep (K = 1 is the paper's system).  Ops route by key ([key mod K]
   picks the shard, the key indexes that shard's own catalogue), faults
   target [slave mod K]'s shard, slave cuts and churn act on the pool
   host holding that slot (every co-located replica is hit), and master,
   auditor and network windows are applied per shard. *)

let shard_of_key ~n_shards key = key mod n_shards
let shard_of_fault ~n_shards (f : Scenario.fault) = f.Scenario.slave mod n_shards

let run ?domains scenario =
  let s = Scenario.normalize scenario in
  let k = s.Scenario.n_shards in
  let config = Scenario.config s in
  let deployment =
    Deployment.create ~n_shards:k ~n_masters:s.Scenario.n_masters
      ~replication_factor:(s.Scenario.n_masters * s.Scenario.slaves_per_master)
      ~n_clients:s.Scenario.n_clients ~config
      ~net:(net_profile s.Scenario.net)
      ~seed:(Int64.of_int s.Scenario.sys_seed)
      ~items_per_shard:s.Scenario.n_items ?domains ()
  in
  let judge = capture deployment in
  let accepted_rev = Array.make k [] in
  List.iter
    (fun (f : Scenario.fault) ->
      System.set_slave_behavior
        (Deployment.system deployment (shard_of_fault ~n_shards:k f))
        ~slave:f.Scenario.slave
        (Fault.Malicious
           {
             probability = f.Scenario.probability;
             mode = f.Scenario.mode;
             from_time = f.Scenario.from_time;
           }))
    s.Scenario.faults;
  (* [window ~from_time ~until set] flips a per-shard setting on every
     shard for the window. *)
  let window ~from_time ~until set =
    for i = 0 to k - 1 do
      let sys = Deployment.system deployment i in
      Deployment.schedule deployment ~shard:i ~time:from_time (fun () -> set sys true);
      Deployment.schedule deployment ~shard:i ~time:until (fun () -> set sys false)
    done
  in
  let host_of_slot slave = (Deployment.hosts_of_shard deployment (slave mod k)).(slave) in
  List.iter
    (function
      | Scenario.Slave_cut { slave; from_time; outage } ->
        let host = host_of_slot slave in
        Deployment.cut_host deployment ~at:from_time host;
        Deployment.heal_host deployment ~at:(from_time +. outage) host
      | Scenario.Slave_churn { slave; from_time; outage } ->
        let host = host_of_slot slave in
        Deployment.crash_host deployment ~at:from_time host;
        Deployment.recover_host deployment ~at:(from_time +. outage) host
      | Scenario.Master_cut { master; from_time; outage } ->
        let shard = master mod k in
        let sys = Deployment.system deployment shard in
        Deployment.schedule deployment ~shard ~time:from_time (fun () ->
            System.set_master_connectivity sys ~master_id:master ~up:false);
        Deployment.schedule deployment ~shard ~time:(from_time +. outage) (fun () ->
            System.set_master_connectivity sys ~master_id:master ~up:true)
      | Scenario.Auditor_cut { from_time; outage } ->
        window ~from_time ~until:(from_time +. outage) (fun sys cut ->
            System.set_auditor_connectivity sys ~up:(not cut))
      | Scenario.Loss_burst { loss; from_time; duration } ->
        window ~from_time ~until:(from_time +. duration) (fun sys on ->
            System.set_loss sys (if on then Some loss else None))
      | Scenario.Latency_spike { factor; from_time; duration } ->
        window ~from_time ~until:(from_time +. duration) (fun sys on ->
            System.set_latency_factor sys (if on then factor else 1.0)))
    s.Scenario.chaos;
  List.iteri
    (fun idx op ->
      match op with
      | Scenario.Read { client; key; at } ->
        let shard = shard_of_key ~n_shards:k key in
        let sys = Deployment.system deployment shard in
        let query = Query.point_read (Deployment.keys deployment shard).(key) in
        Deployment.schedule deployment ~shard ~time:at (fun () ->
            Deployment.read deployment ~shard ~client query ~on_done:(fun report ->
                match report.Secrep_core.Client.outcome with
                | `Accepted result ->
                  let slave =
                    match report.Secrep_core.Client.served_by with
                    | Some slave -> slave
                    | None -> -1
                  in
                  let version = report.Secrep_core.Client.version in
                  let wrong =
                    match
                      System.check_result sys ~version query
                        ~digest:(Canonical.result_digest result)
                    with
                    | Some ok -> not ok
                    | None -> false
                  in
                  accepted_rev.(shard) <-
                    { time = Sim.now (System.sim sys); client; slave; version; wrong }
                    :: accepted_rev.(shard)
                | `Served_by_master _ | `Gave_up -> ()))
      | Scenario.Write { client; key; at } ->
        let shard = shard_of_key ~n_shards:k key in
        let op =
          Oplog.Set_field
            {
              key = (Deployment.keys deployment shard).(key);
              field = "stock";
              value = Value.Int (1000 + idx);
            }
        in
        Deployment.schedule deployment ~shard ~time:at (fun () ->
            Deployment.write deployment ~shard ~client op ~on_done:(fun _ack -> ())))
    s.Scenario.ops;
  (* Run well past the last scheduled op: masters space commits by
     max_latency, so the write backlog alone can take
     (n_writes + 1) * max_latency to drain; then leave the auditor its
     lag slack plus a settling margin for retries and exclusions.
     Every read must also be able to exhaust its worst-case retry
     ladder — (retry_limit + 2) timeouts plus backoff, then the
     degraded master fallback — so the availability invariant can
     demand an answer for each issued read.  Chaos windows extend the
     horizon too: a recovery at the last heal still needs max_latency
     to converge.  Every shard runs to the same end time. *)
  let last_op =
    List.fold_left (fun acc op -> Float.max acc (Scenario.op_time op)) 0.0 s.Scenario.ops
  in
  let last_heal =
    List.fold_left (fun acc c -> Float.max acc (Scenario.chaos_end c)) 0.0 s.Scenario.chaos
  in
  let n_writes =
    List.length
      (List.filter (function Scenario.Write _ -> true | Scenario.Read _ -> false) s.Scenario.ops)
  in
  let horizon =
    Float.max last_op (last_heal +. (2.0 *. s.Scenario.max_latency))
    +. (float_of_int (n_writes + 2) *. s.Scenario.max_latency)
    +. config.Config.audit_lag_slack
    +. (10.0 *. s.Scenario.max_latency)
    +. Config.read_give_up_bound config +. 30.0
  in
  Deployment.run_until deployment horizon;
  (* Each shard is judged against the slice of the scenario it actually
     saw: its own faults and ops.  Chaos stays global — every window
     fans out across the pool. *)
  List.init k (fun i ->
      let scenario_i =
        {
          s with
          Scenario.faults =
            List.filter (fun f -> shard_of_fault ~n_shards:k f = i) s.Scenario.faults;
          ops =
            List.filter
              (fun op ->
                shard_of_key ~n_shards:k
                  (match op with Scenario.Read { key; _ } | Scenario.Write { key; _ } -> key)
                = i)
              s.Scenario.ops;
        }
      in
      judge ~shard:i scenario_i (List.rev accepted_rev.(i)))

let events_digest result = Trace.digest result.events
