type dc_outcome = Passed | Mismatch | Throttled

type t =
  | Log of string
  | Read_issued of { client : int; request : int; mode : string }
  | Read_answered of {
      client : int;
      request : int;
      slave : int;
      outcome : string;
      version : int;
      latency : float;
    }
  | Pledge_signed of { slave : int; request : int; version : int; lied : bool }
  | Pledge_batch_signed of { slave : int; version : int; batch : int }
  | Pledge_verified of {
      client : int;
      request : int;
      slave : int;
      version : int;
      ok : bool;
      reason : string;
    }
  | Double_check of { client : int; request : int; slave : int; outcome : dc_outcome }
  | Write_committed of { master : int; version : int }
  | Keepalive_sent of { master : int; version : int }
  | State_update_applied of { slave : int; from_version : int; to_version : int }
  | Audit_advance of { version : int }
  | Audit_conviction of { slave : int; version : int }
  | Slave_excluded of { slave : int; immediate : bool }
  | Order_delivered of { member : int; seq : int }
  | View_installed of { member : int; view : int; sequencer : int }
  | Partition of { target : string; up : bool }
  | Node_crashed of { node : string }
  | Node_recovered of { node : string; version : int }
  | Net_degraded of { loss : float; latency_factor : float }
  | Breaker_opened of { client : int; slave : int }
  | Breaker_closed of { client : int; slave : int }
  | Audit_overload of { backlog : int }
  | Alert_raised of { rule : string; value : float; threshold : float }
  | Alert_cleared of { rule : string; duration : float }
  | Shard_assigned of { shard : int; host : int; slot : int }
  | Shard_rebalanced of {
      shard : int;
      slot : int;
      from_host : int;
      to_host : int;
      reason : string;
    }
  | Attack_launched of { slave : int; mode : string; client : int; request : int }
  | Attack_suppressed of { slave : int; mode : string; reason : string }
  | Slave_quarantined of { slave : int; score : float; until : float }
  | Domain_started of { domain : int; shards : int }
  | Shard_merged of { shard : int; events : int }

type field = I of int | F of float | S of string | B of bool

let dc_outcome_to_string = function
  | Passed -> "passed"
  | Mismatch -> "mismatch"
  | Throttled -> "throttled"

let accused = function
  | Audit_conviction { slave; _ }
  | Slave_excluded { slave; _ }
  | Double_check { slave; outcome = Mismatch; _ } ->
    Some slave
  | _ -> None

let dc_outcome_of_string = function
  | "passed" -> Ok Passed
  | "mismatch" -> Ok Mismatch
  | "throttled" -> Ok Throttled
  | s -> Error (Printf.sprintf "unknown double-check outcome %S" s)

let kind = function
  | Log _ -> "log"
  | Read_issued _ -> "read_issued"
  | Read_answered _ -> "read_answered"
  | Pledge_signed _ -> "pledge_signed"
  | Pledge_batch_signed _ -> "pledge_batch_signed"
  | Pledge_verified _ -> "pledge_verified"
  | Double_check _ -> "double_check"
  | Write_committed _ -> "write_committed"
  | Keepalive_sent _ -> "keepalive_sent"
  | State_update_applied _ -> "state_update_applied"
  | Audit_advance _ -> "audit_advance"
  | Audit_conviction _ -> "audit_conviction"
  | Slave_excluded _ -> "slave_excluded"
  | Order_delivered _ -> "order_delivered"
  | View_installed _ -> "view_installed"
  | Partition _ -> "partition"
  | Node_crashed _ -> "node_crashed"
  | Node_recovered _ -> "node_recovered"
  | Net_degraded _ -> "net_degraded"
  | Breaker_opened _ -> "breaker_opened"
  | Breaker_closed _ -> "breaker_closed"
  | Audit_overload _ -> "audit_overload"
  | Alert_raised _ -> "alert_raised"
  | Alert_cleared _ -> "alert_cleared"
  | Shard_assigned _ -> "shard_assigned"
  | Shard_rebalanced _ -> "shard_rebalanced"
  | Attack_launched _ -> "attack_launched"
  | Attack_suppressed _ -> "attack_suppressed"
  | Slave_quarantined _ -> "slave_quarantined"
  | Domain_started _ -> "domain_started"
  | Shard_merged _ -> "shard_merged"

let all_kinds =
  [
    "log";
    "read_issued";
    "read_answered";
    "pledge_signed";
    "pledge_batch_signed";
    "pledge_verified";
    "double_check";
    "write_committed";
    "keepalive_sent";
    "state_update_applied";
    "audit_advance";
    "audit_conviction";
    "slave_excluded";
    "order_delivered";
    "view_installed";
    "partition";
    "node_crashed";
    "node_recovered";
    "net_degraded";
    "breaker_opened";
    "breaker_closed";
    "audit_overload";
    "alert_raised";
    "alert_cleared";
    "shard_assigned";
    "shard_rebalanced";
    "attack_launched";
    "attack_suppressed";
    "slave_quarantined";
    "domain_started";
    "shard_merged";
  ]

let fields = function
  | Log msg -> [ ("message", S msg) ]
  | Read_issued { client; request; mode } ->
    [ ("client", I client); ("request", I request); ("mode", S mode) ]
  | Read_answered { client; request; slave; outcome; version; latency } ->
    [
      ("client", I client);
      ("request", I request);
      ("slave", I slave);
      ("outcome", S outcome);
      ("version", I version);
      ("latency", F latency);
    ]
  | Pledge_signed { slave; request; version; lied } ->
    [ ("slave", I slave); ("request", I request); ("version", I version); ("lied", B lied) ]
  | Pledge_batch_signed { slave; version; batch } ->
    [ ("slave", I slave); ("version", I version); ("batch", I batch) ]
  | Pledge_verified { client; request; slave; version; ok; reason } ->
    [
      ("client", I client);
      ("request", I request);
      ("slave", I slave);
      ("version", I version);
      ("ok", B ok);
      ("reason", S reason);
    ]
  | Double_check { client; request; slave; outcome } ->
    [
      ("client", I client);
      ("request", I request);
      ("slave", I slave);
      ("outcome", S (dc_outcome_to_string outcome));
    ]
  | Write_committed { master; version } -> [ ("master", I master); ("version", I version) ]
  | Keepalive_sent { master; version } -> [ ("master", I master); ("version", I version) ]
  | State_update_applied { slave; from_version; to_version } ->
    [ ("slave", I slave); ("from_version", I from_version); ("to_version", I to_version) ]
  | Audit_advance { version } -> [ ("version", I version) ]
  | Audit_conviction { slave; version } -> [ ("slave", I slave); ("version", I version) ]
  | Slave_excluded { slave; immediate } -> [ ("slave", I slave); ("immediate", B immediate) ]
  | Order_delivered { member; seq } -> [ ("member", I member); ("seq", I seq) ]
  | View_installed { member; view; sequencer } ->
    [ ("member", I member); ("view", I view); ("sequencer", I sequencer) ]
  | Partition { target; up } -> [ ("target", S target); ("up", B up) ]
  | Node_crashed { node } -> [ ("node", S node) ]
  | Node_recovered { node; version } -> [ ("node", S node); ("version", I version) ]
  | Net_degraded { loss; latency_factor } ->
    [ ("loss", F loss); ("latency_factor", F latency_factor) ]
  | Breaker_opened { client; slave } -> [ ("client", I client); ("slave", I slave) ]
  | Breaker_closed { client; slave } -> [ ("client", I client); ("slave", I slave) ]
  | Audit_overload { backlog } -> [ ("backlog", I backlog) ]
  | Alert_raised { rule; value; threshold } ->
    [ ("rule", S rule); ("value", F value); ("threshold", F threshold) ]
  | Alert_cleared { rule; duration } -> [ ("rule", S rule); ("duration", F duration) ]
  | Shard_assigned { shard; host; slot } ->
    [ ("shard", I shard); ("host", I host); ("slot", I slot) ]
  | Shard_rebalanced { shard; slot; from_host; to_host; reason } ->
    [
      ("shard", I shard);
      ("slot", I slot);
      ("from_host", I from_host);
      ("to_host", I to_host);
      ("reason", S reason);
    ]
  | Attack_launched { slave; mode; client; request } ->
    [ ("slave", I slave); ("mode", S mode); ("client", I client); ("request", I request) ]
  | Attack_suppressed { slave; mode; reason } ->
    [ ("slave", I slave); ("mode", S mode); ("reason", S reason) ]
  | Slave_quarantined { slave; score; until } ->
    [ ("slave", I slave); ("score", F score); ("until", F until) ]
  | Domain_started { domain; shards } -> [ ("domain", I domain); ("shards", I shards) ]
  | Shard_merged { shard; events } -> [ ("shard", I shard); ("events", I events) ]

(* -- reconstruction (the JSONL importer) ----------------------------- *)

let ( let* ) = Result.bind

let find_field fs name =
  match List.assoc_opt name fs with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field fs name =
  let* f = find_field fs name in
  match f with
  | I n -> Ok n
  | F x when Float.is_integer x -> Ok (int_of_float x)
  | _ -> Error (Printf.sprintf "field %S is not an int" name)

let float_field fs name =
  let* f = find_field fs name in
  match f with
  | F x -> Ok x
  | I n -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "field %S is not a number" name)

let str_field fs name =
  let* f = find_field fs name in
  match f with S s -> Ok s | _ -> Error (Printf.sprintf "field %S is not a string" name)

let bool_field fs name =
  let* f = find_field fs name in
  match f with B b -> Ok b | _ -> Error (Printf.sprintf "field %S is not a bool" name)

(* Traces written before request-id lineage lack the "request" field;
   default it to -1 so old JSONL files still replay. *)
let request_field fs = if List.mem_assoc "request" fs then int_field fs "request" else Ok (-1)

let of_fields ~kind fs =
  match kind with
  | "log" ->
    let* message = str_field fs "message" in
    Ok (Log message)
  | "read_issued" ->
    let* client = int_field fs "client" in
    let* request = request_field fs in
    let* mode = str_field fs "mode" in
    Ok (Read_issued { client; request; mode })
  | "read_answered" ->
    let* client = int_field fs "client" in
    let* request = request_field fs in
    let* slave = int_field fs "slave" in
    let* outcome = str_field fs "outcome" in
    let* version = int_field fs "version" in
    let* latency = float_field fs "latency" in
    Ok (Read_answered { client; request; slave; outcome; version; latency })
  | "pledge_signed" ->
    let* slave = int_field fs "slave" in
    let* request = request_field fs in
    let* version = int_field fs "version" in
    let* lied = bool_field fs "lied" in
    Ok (Pledge_signed { slave; request; version; lied })
  | "pledge_batch_signed" ->
    let* slave = int_field fs "slave" in
    let* version = int_field fs "version" in
    let* batch = int_field fs "batch" in
    Ok (Pledge_batch_signed { slave; version; batch })
  | "pledge_verified" ->
    let* client = int_field fs "client" in
    let* request = request_field fs in
    let* slave = int_field fs "slave" in
    let* version = int_field fs "version" in
    let* ok = bool_field fs "ok" in
    let* reason = str_field fs "reason" in
    Ok (Pledge_verified { client; request; slave; version; ok; reason })
  | "double_check" ->
    let* client = int_field fs "client" in
    let* request = request_field fs in
    let* slave = int_field fs "slave" in
    let* outcome = str_field fs "outcome" in
    let* outcome = dc_outcome_of_string outcome in
    Ok (Double_check { client; request; slave; outcome })
  | "write_committed" ->
    let* master = int_field fs "master" in
    let* version = int_field fs "version" in
    Ok (Write_committed { master; version })
  | "keepalive_sent" ->
    let* master = int_field fs "master" in
    let* version = int_field fs "version" in
    Ok (Keepalive_sent { master; version })
  | "state_update_applied" ->
    let* slave = int_field fs "slave" in
    let* from_version = int_field fs "from_version" in
    let* to_version = int_field fs "to_version" in
    Ok (State_update_applied { slave; from_version; to_version })
  | "audit_advance" ->
    let* version = int_field fs "version" in
    Ok (Audit_advance { version })
  | "audit_conviction" ->
    let* slave = int_field fs "slave" in
    let* version = int_field fs "version" in
    Ok (Audit_conviction { slave; version })
  | "slave_excluded" ->
    let* slave = int_field fs "slave" in
    let* immediate = bool_field fs "immediate" in
    Ok (Slave_excluded { slave; immediate })
  | "order_delivered" ->
    let* member = int_field fs "member" in
    let* seq = int_field fs "seq" in
    Ok (Order_delivered { member; seq })
  | "view_installed" ->
    let* member = int_field fs "member" in
    let* view = int_field fs "view" in
    let* sequencer = int_field fs "sequencer" in
    Ok (View_installed { member; view; sequencer })
  | "partition" ->
    let* target = str_field fs "target" in
    let* up = bool_field fs "up" in
    Ok (Partition { target; up })
  | "node_crashed" ->
    let* node = str_field fs "node" in
    Ok (Node_crashed { node })
  | "node_recovered" ->
    let* node = str_field fs "node" in
    let* version = int_field fs "version" in
    Ok (Node_recovered { node; version })
  | "net_degraded" ->
    let* loss = float_field fs "loss" in
    let* latency_factor = float_field fs "latency_factor" in
    Ok (Net_degraded { loss; latency_factor })
  | "breaker_opened" ->
    let* client = int_field fs "client" in
    let* slave = int_field fs "slave" in
    Ok (Breaker_opened { client; slave })
  | "breaker_closed" ->
    let* client = int_field fs "client" in
    let* slave = int_field fs "slave" in
    Ok (Breaker_closed { client; slave })
  | "audit_overload" ->
    let* backlog = int_field fs "backlog" in
    Ok (Audit_overload { backlog })
  | "alert_raised" ->
    let* rule = str_field fs "rule" in
    let* value = float_field fs "value" in
    let* threshold = float_field fs "threshold" in
    Ok (Alert_raised { rule; value; threshold })
  | "alert_cleared" ->
    let* rule = str_field fs "rule" in
    let* duration = float_field fs "duration" in
    Ok (Alert_cleared { rule; duration })
  | "shard_assigned" ->
    let* shard = int_field fs "shard" in
    let* host = int_field fs "host" in
    let* slot = int_field fs "slot" in
    Ok (Shard_assigned { shard; host; slot })
  | "shard_rebalanced" ->
    let* shard = int_field fs "shard" in
    let* slot = int_field fs "slot" in
    let* from_host = int_field fs "from_host" in
    let* to_host = int_field fs "to_host" in
    let* reason = str_field fs "reason" in
    Ok (Shard_rebalanced { shard; slot; from_host; to_host; reason })
  | "attack_launched" ->
    let* slave = int_field fs "slave" in
    let* mode = str_field fs "mode" in
    let* client = int_field fs "client" in
    let* request = request_field fs in
    Ok (Attack_launched { slave; mode; client; request })
  | "attack_suppressed" ->
    let* slave = int_field fs "slave" in
    let* mode = str_field fs "mode" in
    let* reason = str_field fs "reason" in
    Ok (Attack_suppressed { slave; mode; reason })
  | "slave_quarantined" ->
    let* slave = int_field fs "slave" in
    let* score = float_field fs "score" in
    let* until = float_field fs "until" in
    Ok (Slave_quarantined { slave; score; until })
  | "domain_started" ->
    let* domain = int_field fs "domain" in
    let* shards = int_field fs "shards" in
    Ok (Domain_started { domain; shards })
  | "shard_merged" ->
    let* shard = int_field fs "shard" in
    let* events = int_field fs "events" in
    Ok (Shard_merged { shard; events })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

(* -- rendering -------------------------------------------------------- *)

let pp_field fmt (name, f) =
  match f with
  | I n -> Format.fprintf fmt "%s=%d" name n
  | F x -> Format.fprintf fmt "%s=%.6f" name x
  | S s -> Format.fprintf fmt "%s=%s" name s
  | B b -> Format.fprintf fmt "%s=%b" name b

let pp fmt t =
  match t with
  | Log msg -> Format.pp_print_string fmt msg
  | _ ->
    Format.pp_print_string fmt (kind t);
    List.iter (fun f -> Format.fprintf fmt " %a" pp_field f) (fields t)

let to_string t = Format.asprintf "%a" pp t
