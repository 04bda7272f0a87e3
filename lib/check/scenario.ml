module Fault = Secrep_core.Fault
module Config = Secrep_core.Config

type net = Lan | Wan | Lossy of float

type op =
  | Read of { client : int; key : int; at : float }
  | Write of { client : int; key : int; at : float }

type fault = {
  slave : int;
  mode : Fault.lie_mode;
  probability : float;
  from_time : float;
}

type chaos =
  | Slave_cut of { slave : int; from_time : float; outage : float }
  | Slave_churn of { slave : int; from_time : float; outage : float }
  | Master_cut of { master : int; from_time : float; outage : float }
  | Auditor_cut of { from_time : float; outage : float }
  | Loss_burst of { loss : float; from_time : float; duration : float }
  | Latency_spike of { factor : float; from_time : float; duration : float }

type t = {
  sys_seed : int;
  n_shards : int;
  n_masters : int;
  slaves_per_master : int;
  n_clients : int;
  n_items : int;
  max_latency : float;
  keepalive_period : float;
  double_check_p : float;
  audit : bool;
  pledge_batch : int;
  read_nonces : bool;
  audit_adaptive : bool;
  net : net;
  faults : fault list;
  chaos : chaos list;
  ops : op list;
}

let clamp lo hi v = max lo (min hi v)
let clampf lo hi v = Float.max lo (Float.min hi v)
let imod v n = ((v mod n) + n) mod n

let normalize s =
  let n_shards = clamp 1 4 s.n_shards in
  let n_masters = clamp 1 3 s.n_masters in
  let slaves_per_master = clamp 1 3 s.slaves_per_master in
  let n_clients = clamp 1 4 s.n_clients in
  let n_items = clamp 1 16 s.n_items in
  let n_slaves = n_masters * slaves_per_master in
  let max_latency = clampf 0.5 10.0 s.max_latency in
  let keepalive_period = clampf (max_latency /. 10.0) (max_latency /. 2.0) s.keepalive_period in
  let normalize_op = function
    | Read { client; key; at } ->
      Read { client = imod client n_clients; key = imod key n_items; at = clampf 0.0 60.0 at }
    | Write { client; key; at } ->
      Write { client = imod client n_clients; key = imod key n_items; at = clampf 0.0 60.0 at }
  in
  let normalize_fault f =
    let mode =
      match f.mode with
      | Fault.Equivocate { clique } ->
        Fault.Equivocate
          { clique = List.sort_uniq compare (List.map (fun c -> imod c n_clients) clique) }
      | Fault.Adaptive { threshold } ->
        Fault.Adaptive { threshold = clampf 0.5 10.0 threshold }
      | Fault.Flaky_omit { burst } -> Fault.Flaky_omit { burst = clamp 1 8 burst }
      | m -> m
    in
    {
      slave = imod f.slave n_slaves;
      mode;
      probability = clampf 0.1 1.0 f.probability;
      from_time = clampf 0.0 30.0 f.from_time;
    }
  in
  let normalize_chaos = function
    | Slave_cut { slave; from_time; outage } ->
      Slave_cut
        {
          slave = imod slave n_slaves;
          from_time = clampf 0.0 60.0 from_time;
          outage = clampf 1.0 30.0 outage;
        }
    | Slave_churn { slave; from_time; outage } ->
      Slave_churn
        {
          slave = imod slave n_slaves;
          from_time = clampf 0.0 60.0 from_time;
          outage = clampf 1.0 30.0 outage;
        }
    | Master_cut { master; from_time; outage } ->
      Master_cut
        {
          master = imod master n_masters;
          from_time = clampf 0.0 60.0 from_time;
          outage = clampf 1.0 30.0 outage;
        }
    | Auditor_cut { from_time; outage } ->
      Auditor_cut
        { from_time = clampf 0.0 60.0 from_time; outage = clampf 1.0 30.0 outage }
    | Loss_burst { loss; from_time; duration } ->
      Loss_burst
        {
          loss = clampf 0.05 0.5 loss;
          from_time = clampf 0.0 60.0 from_time;
          duration = clampf 1.0 30.0 duration;
        }
    | Latency_spike { factor; from_time; duration } ->
      Latency_spike
        {
          factor = clampf 2.0 8.0 factor;
          from_time = clampf 0.0 60.0 from_time;
          duration = clampf 1.0 30.0 duration;
        }
  in
  {
    s with
    sys_seed = abs s.sys_seed;
    n_shards;
    n_masters;
    slaves_per_master;
    n_clients;
    n_items;
    max_latency;
    keepalive_period;
    double_check_p = clampf 0.0 1.0 s.double_check_p;
    pledge_batch = clamp 1 8 s.pledge_batch;
    faults = List.map normalize_fault s.faults;
    chaos = List.map normalize_chaos s.chaos;
    ops = List.map normalize_op s.ops;
  }

let config s =
  Config.validate_exn
    {
      Config.default with
      Config.max_latency = s.max_latency;
      keepalive_period = s.keepalive_period;
      double_check_probability = s.double_check_p;
      audit_enabled = s.audit;
      pledge_batch_size = s.pledge_batch;
      read_nonces = s.read_nonces;
      audit_adaptive = s.audit_adaptive;
    }

let of_config ~sys_seed ~n_masters ~slaves_per_master ~n_clients ~n_items (c : Config.t) =
  {
    sys_seed;
    n_shards = 1;
    n_masters;
    slaves_per_master;
    n_clients;
    n_items;
    max_latency = c.Config.max_latency;
    keepalive_period = c.Config.keepalive_period;
    double_check_p = c.Config.double_check_probability;
    audit = c.Config.audit_enabled;
    pledge_batch = c.Config.pledge_batch_size;
    read_nonces = c.Config.read_nonces;
    audit_adaptive = c.Config.audit_adaptive;
    net = Wan;
    faults = [];
    chaos = [];
    ops = [];
  }

let honest s = (normalize s).faults = []
let has_chaos s = (normalize s).chaos <> []
let lossy s = match s.net with Lossy p -> p > 0.0 | Lan | Wan -> false
let op_time = function Read { at; _ } | Write { at; _ } -> at

let chaos_end = function
  | Slave_cut { from_time; outage; _ }
  | Slave_churn { from_time; outage; _ }
  | Master_cut { master = _; from_time; outage }
  | Auditor_cut { from_time; outage } ->
    from_time +. outage
  | Loss_burst { from_time; duration; _ } | Latency_spike { from_time; duration; _ } ->
    from_time +. duration

(* -- generation -------------------------------------------------------- *)

let gen_mode : Fault.lie_mode Gen.t =
  Gen.frequency
    [
      (2, Gen.return Fault.Corrupt_result);
      (2, Gen.return (Fault.Collude "cabal"));
      (2, Gen.return Fault.Stale_state);
      (2, Gen.return Fault.Bad_signature);
      (2, Gen.return Fault.Omit_result);
      (* Strategic attackers (stateful lie policies). *)
      (1, Gen.return Fault.Replay_pledge);
      (1, Gen.map (fun c -> Fault.Equivocate { clique = [ c ] }) (Gen.int_range 0 3));
      (1, Gen.map (fun threshold -> Fault.Adaptive { threshold }) (Gen.choose [ 1.0; 2.0 ]));
      (1, Gen.map (fun burst -> Fault.Flaky_omit { burst }) (Gen.int_range 2 5));
    ]

let gen_fault rng =
  let slave = Gen.int_range 0 8 rng in
  let mode = gen_mode rng in
  let probability = Gen.choose [ 0.5; 1.0 ] rng in
  let from_time = Gen.float_range 0.0 10.0 rng in
  { slave; mode; probability; from_time }

let gen_chaos rng =
  let from_time = Gen.float_range 0.0 30.0 rng in
  let outage = Gen.float_range 2.0 15.0 rng in
  match Gen.int_range 0 7 rng with
  | 0 | 1 -> Slave_cut { slave = Gen.int_range 0 8 rng; from_time; outage }
  | 2 | 3 -> Slave_churn { slave = Gen.int_range 0 8 rng; from_time; outage }
  | 4 -> Master_cut { master = Gen.int_range 0 2 rng; from_time; outage }
  | 5 -> Auditor_cut { from_time; outage }
  | 6 -> Loss_burst { loss = Gen.choose [ 0.1; 0.3 ] rng; from_time; duration = outage }
  | _ -> Latency_spike { factor = Gen.choose [ 2.0; 4.0; 8.0 ] rng; from_time; duration = outage }

let gen_op rng =
  let write = Gen.frequency [ (3, Gen.return false); (2, Gen.return true) ] rng in
  let client = Gen.int_range 0 7 rng in
  let key = Gen.int_range 0 31 rng in
  let at = Gen.float_range 0.0 20.0 rng in
  if write then Write { client; key; at } else Read { client; key; at }

let gen rng =
  let sys_seed = Gen.int_range 0 1_000_000 rng in
  (* Single-shard runs stay the common case; multi-shard draws exercise
     the deployment layer and cross-shard chaos fan-out. *)
  let n_shards =
    Gen.frequency
      [
        (3, Gen.return 1);
        (2, Gen.return 2);
        (1, Gen.return 3);
        (1, Gen.return 4);
      ]
      rng
  in
  let n_masters = Gen.int_range 1 3 rng in
  let slaves_per_master = Gen.int_range 1 3 rng in
  let n_clients = Gen.int_range 1 4 rng in
  let n_items = Gen.int_range 1 16 rng in
  let max_latency = Gen.choose [ 1.0; 2.0; 5.0 ] rng in
  let keepalive_frac = Gen.choose [ 0.15; 0.3; 0.5 ] rng in
  let double_check_p = Gen.choose [ 0.0; 0.05; 0.3 ] rng in
  let audit = Gen.frequency [ (3, Gen.return true); (1, Gen.return false) ] rng in
  let pledge_batch = Gen.choose [ 1; 2; 3; 4 ] rng in
  let read_nonces = Gen.frequency [ (1, Gen.return true); (2, Gen.return false) ] rng in
  let audit_adaptive = Gen.frequency [ (1, Gen.return true); (2, Gen.return false) ] rng in
  let net =
    Gen.frequency
      [
        (3, Gen.return Lan);
        (2, Gen.return Wan);
        (1, Gen.map (fun p -> Lossy p) (Gen.choose [ 0.05; 0.15 ]));
      ]
      rng
  in
  let faults = Gen.list_size (Gen.int_range 0 2) gen_fault rng in
  let chaos = Gen.list_size (Gen.frequency [ (2, Gen.return 0); (2, Gen.return 1); (1, Gen.return 2) ]) gen_chaos rng in
  let ops = Gen.list_size (Gen.int_range 0 25) gen_op rng in
  normalize
    {
      sys_seed;
      n_shards;
      n_masters;
      slaves_per_master;
      n_clients;
      n_items;
      max_latency;
      keepalive_period = max_latency *. keepalive_frac;
      double_check_p;
      audit;
      pledge_batch;
      read_nonces;
      audit_adaptive;
      net;
      faults;
      chaos;
      ops;
    }

(* -- shrinking --------------------------------------------------------- *)

let shrink_op op =
  let towards_zero field = Shrink.int_towards ~target:0 field in
  match op with
  | Read { client; key; at } ->
    Seq.append
      (Seq.map (fun client -> Read { client; key; at }) (towards_zero client))
      (Seq.map (fun key -> Read { client; key; at }) (towards_zero key))
  | Write { client; key; at } ->
    Seq.append
      (Seq.map (fun client -> Write { client; key; at }) (towards_zero client))
      (Seq.map (fun key -> Write { client; key; at }) (towards_zero key))

let shrink_fault f =
  let base = Seq.map (fun slave -> { f with slave }) (Shrink.int_towards ~target:0 f.slave) in
  (* Strategic modes first shrink to the plain liar: a violation that
     survives as [Corrupt_result] implicates the base protocol, not the
     attack policy. *)
  match f.mode with
  | Fault.Replay_pledge | Fault.Equivocate _ | Fault.Adaptive _ | Fault.Flaky_omit _ ->
    Seq.append (Seq.return { f with mode = Fault.Corrupt_result }) base
  | Fault.Corrupt_result | Fault.Collude _ | Fault.Stale_state | Fault.Bad_signature
  | Fault.Omit_result ->
    base

let shrink_chaos = function
  | Slave_cut { slave; from_time; outage } ->
    Seq.map
      (fun slave -> Slave_cut { slave; from_time; outage })
      (Shrink.int_towards ~target:0 slave)
  | Slave_churn { slave; from_time; outage } ->
    Seq.append
      (Seq.return (Slave_cut { slave; from_time; outage }))
      (Seq.map
         (fun slave -> Slave_churn { slave; from_time; outage })
         (Shrink.int_towards ~target:0 slave))
  | Master_cut { master; from_time; outage } ->
    Seq.map
      (fun master -> Master_cut { master; from_time; outage })
      (Shrink.int_towards ~target:0 master)
  | Auditor_cut _ | Loss_burst _ | Latency_spike _ -> Seq.empty

let shrink s =
  let with_ops ops = { s with ops } in
  let with_faults faults = { s with faults } in
  let with_chaos chaos = { s with chaos } in
  let scalar_shrinks =
    List.to_seq
      (List.concat
         [
           (* Pull toward one shard first: a violation that survives on
              the single-content system implicates the protocol, not
              the deployment layer. *)
           List.of_seq
             (Seq.map (fun n_shards -> { s with n_shards })
                (Shrink.int_towards ~target:1 s.n_shards));
           List.of_seq
             (Seq.map (fun n_clients -> { s with n_clients })
                (Shrink.int_towards ~target:1 s.n_clients));
           List.of_seq
             (Seq.map
                (fun slaves_per_master -> { s with slaves_per_master })
                (Shrink.int_towards ~target:1 s.slaves_per_master));
           List.of_seq
             (Seq.map (fun n_masters -> { s with n_masters })
                (Shrink.int_towards ~target:1 s.n_masters));
           List.of_seq
             (Seq.map (fun n_items -> { s with n_items })
                (Shrink.int_towards ~target:1 s.n_items));
           (if s.double_check_p > 0.0 then [ { s with double_check_p = 0.0 } ] else []);
           (if s.pledge_batch > 1 then [ { s with pledge_batch = 1 } ] else []);
           (if s.read_nonces then [ { s with read_nonces = false } ] else []);
           (if s.audit_adaptive then [ { s with audit_adaptive = false } ] else []);
           (match s.net with Lan -> [] | Wan | Lossy _ -> [ { s with net = Lan } ]);
         ])
  in
  Seq.map normalize
    (Seq.append
       (Seq.map with_ops (Shrink.list ~elt:shrink_op s.ops))
       (Seq.append
          (Seq.map with_chaos (Shrink.list ~elt:shrink_chaos s.chaos))
          (Seq.append (Seq.map with_faults (Shrink.list ~elt:shrink_fault s.faults)) scalar_shrinks)))

(* -- printing ---------------------------------------------------------- *)

let net_to_string = function
  | Lan -> "lan"
  | Wan -> "wan"
  | Lossy p -> Printf.sprintf "lossy(%.2g)" p

let pp_op fmt = function
  | Read { client; key; at } -> Format.fprintf fmt "read(c%d, k%d, t=%.2f)" client key at
  | Write { client; key; at } -> Format.fprintf fmt "write(c%d, k%d, t=%.2f)" client key at

let pp_fault fmt f =
  Format.fprintf fmt "slave %d: %s p=%.2g from t=%.2f" f.slave (Fault.mode_name f.mode)
    f.probability f.from_time

let pp_chaos fmt = function
  | Slave_cut { slave; from_time; outage } ->
    Format.fprintf fmt "cut slave %d [%.2f, %.2f]" slave from_time (from_time +. outage)
  | Slave_churn { slave; from_time; outage } ->
    Format.fprintf fmt "churn slave %d [%.2f, %.2f]" slave from_time (from_time +. outage)
  | Master_cut { master; from_time; outage } ->
    Format.fprintf fmt "cut master %d [%.2f, %.2f]" master from_time (from_time +. outage)
  | Auditor_cut { from_time; outage } ->
    Format.fprintf fmt "cut auditor [%.2f, %.2f]" from_time (from_time +. outage)
  | Loss_burst { loss; from_time; duration } ->
    Format.fprintf fmt "loss %.2g [%.2f, %.2f]" loss from_time (from_time +. duration)
  | Latency_spike { factor; from_time; duration } ->
    Format.fprintf fmt "latency x%.2g [%.2f, %.2f]" factor from_time (from_time +. duration)

let pp fmt s =
  Format.fprintf fmt
    "@[<v>scenario:@,\
    \  sys_seed=%d  %d shard(s), %d master(s) x %d slave(s), %d client(s), %d item(s)@,\
    \  max_latency=%.2g keepalive=%.2g double_check_p=%.2g audit=%b batch=%d nonces=%b adaptive=%b net=%s@,\
    \  faults: %s@,\
    \  chaos: %s@,\
    \  ops (%d):@,%a@]"
    s.sys_seed s.n_shards s.n_masters s.slaves_per_master s.n_clients s.n_items s.max_latency
    s.keepalive_period s.double_check_p s.audit s.pledge_batch s.read_nonces
    s.audit_adaptive (net_to_string s.net)
    (if s.faults = [] then "none"
     else String.concat "; " (List.map (Format.asprintf "%a" pp_fault) s.faults))
    (if s.chaos = [] then "none"
     else String.concat "; " (List.map (Format.asprintf "%a" pp_chaos) s.chaos))
    (List.length s.ops)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun fmt op ->
         Format.fprintf fmt "    %a" pp_op op))
    s.ops

let to_string s = Format.asprintf "%a" pp s
