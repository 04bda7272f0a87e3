module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Json = Secrep_sim.Export.Json

type info = {
  request : int;
  client : int;
  issued_at : float;
  mode : string;
  mutable signed_at : float option;
  mutable signed_by : int;
  mutable lied : bool;
  mutable verify_ok : int;
  mutable verify_failed : int;
  mutable first_verified_at : float option;
  mutable double_check : string option;
  mutable answered_at : float option;
  mutable outcome : string;
  mutable served_by : int;
  mutable version : int;
  mutable latency : float;
  mutable detected_at : float option;
}

type quarantine = { time : float; slave : int; score : float; until : float }

type t = {
  requests : (int, info) Hashtbl.t;
  mutable order : int list; (* request ids, newest first *)
  mutable accusations : (float * int) list; (* (time, slave), newest first *)
  mutable quarantine_log : quarantine list; (* newest first *)
  mutable finalized : bool;
}

let create () =
  {
    requests = Hashtbl.create 256;
    order = [];
    accusations = [];
    quarantine_log = [];
    finalized = false;
  }

let find t request = Hashtbl.find_opt t.requests request

let accuse t ~time ~slave = t.accusations <- (time, slave) :: t.accusations

let observe t (r : Trace.record) =
  if not t.finalized then begin
    let time = r.time in
    (match Event.accused r.event with Some slave -> accuse t ~time ~slave | None -> ());
    match r.event with
    | Event.Read_issued { client; request; mode } when request >= 0 ->
      if not (Hashtbl.mem t.requests request) then begin
        Hashtbl.replace t.requests request
          {
            request;
            client;
            issued_at = time;
            mode;
            signed_at = None;
            signed_by = -1;
            lied = false;
            verify_ok = 0;
            verify_failed = 0;
            first_verified_at = None;
            double_check = None;
            answered_at = None;
            outcome = "";
            served_by = -1;
            version = -1;
            latency = 0.0;
            detected_at = None;
          };
        t.order <- request :: t.order
      end
    | Event.Pledge_signed { slave; request; lied; _ } -> begin
      match find t request with
      | None -> ()
      | Some i ->
        if i.signed_at = None then i.signed_at <- Some time;
        i.signed_by <- slave;
        i.lied <- i.lied || lied
    end
    | Event.Pledge_verified { request; ok; _ } -> begin
      match find t request with
      | None -> ()
      | Some i ->
        if ok then begin
          i.verify_ok <- i.verify_ok + 1;
          if i.first_verified_at = None then i.first_verified_at <- Some time
        end
        else i.verify_failed <- i.verify_failed + 1
    end
    | Event.Double_check { request; outcome; _ } -> begin
      match find t request with
      | None -> ()
      | Some i -> i.double_check <- Some (Event.dc_outcome_to_string outcome)
    end
    | Event.Read_answered { request; slave; outcome; version; latency; _ } -> begin
      match find t request with
      | None -> ()
      | Some i ->
        i.answered_at <- Some time;
        i.outcome <- outcome;
        i.served_by <- slave;
        i.version <- version;
        i.latency <- latency
    end
    | Event.Slave_quarantined { slave; score; until } ->
      (* Probation is reversible and evidence-free, so it is NOT an
         accusation — it must never count toward detection stats. *)
      t.quarantine_log <- { time; slave; score; until } :: t.quarantine_log
    | _ -> ()
  end

(* The pledge that was ultimately accepted lied iff the serving slave
   lied on this request; the per-info [lied] flag is an OR across
   attempts, which is exactly what "this read may return wrong data"
   means for the lineage. *)
let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    let accusations = List.sort compare (List.rev t.accusations) in
    Hashtbl.iter
      (fun _ i ->
        match i.answered_at with
        | Some answered when i.served_by >= 0 ->
          i.detected_at <-
            List.find_opt
              (fun (time, slave) -> slave = i.served_by && time >= answered -. 1e-9)
              accusations
            |> Option.map fst
        | _ -> ())
      t.requests
  end

let request_ids t = List.rev t.order
let quarantines t = List.rev t.quarantine_log

(* -- summaries --------------------------------------------------------- *)

type phase = { phase : string; count : int; mean : float; max : float }

type slave_row = {
  slave : int;
  served : int;
  lied_served : int;
  first_accused_at : float option;
  reads_before_detection : int option;
  detection_latency : float option;
}

type client_row = {
  client : int;
  issued : int;
  accepted : int;
  degraded : int;
  gave_up : int;
  outstanding : int;
}

type summary = {
  issued : int;
  completed : int;
  accepted : int;
  by_master : int;
  gave_up : int;
  outstanding : int;
  double_checked : int;
  degraded : int;
  lied_served : int;
  detected_lied : int;
  e2e_mean : float;
  e2e_p99 : float;
  e2e_max : float;
  detection_mean : float;
  detection_max : float;
  critical_path : phase list;
}

let mean_of = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let max_of = function [] -> 0.0 | l -> List.fold_left Float.max neg_infinity l

let p99_of = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (0.99 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let infos t = List.filter_map (find t) (request_ids t)

let is_degraded i = i.outcome = "by-master" && i.mode <> "sensitive"

let phase_of name samples =
  { phase = name; count = List.length samples; mean = mean_of samples; max = max_of samples }

let summarize t =
  finalize t;
  let all = infos t in
  let completed = List.filter (fun i -> i.answered_at <> None) all in
  let accepted = List.filter (fun i -> i.outcome = "accepted") completed in
  let lied_served = List.filter (fun i -> i.lied && i.served_by >= 0) accepted in
  let detected = List.filter (fun i -> i.detected_at <> None) lied_served in
  let detection_latencies =
    List.filter_map
      (fun i ->
        match (i.detected_at, i.answered_at) with
        | Some d, Some a -> Some (d -. a)
        | _ -> None)
      detected
  in
  let lat = List.map (fun i -> i.latency) completed in
  let diffs f = List.filter_map f accepted in
  {
    issued = List.length all;
    completed = List.length completed;
    accepted = List.length accepted;
    by_master = List.length (List.filter (fun i -> i.outcome = "by-master") completed);
    gave_up = List.length (List.filter (fun i -> i.outcome = "gave-up") completed);
    outstanding = List.length all - List.length completed;
    double_checked = List.length (List.filter (fun i -> i.double_check <> None) completed);
    degraded = List.length (List.filter is_degraded completed);
    lied_served = List.length lied_served;
    detected_lied = List.length detected;
    e2e_mean = mean_of lat;
    e2e_p99 = p99_of lat;
    e2e_max = max_of lat;
    detection_mean = mean_of detection_latencies;
    detection_max = max_of detection_latencies;
    critical_path =
      [
        phase_of "issue_to_pledge"
          (diffs (fun i -> Option.map (fun s -> s -. i.issued_at) i.signed_at));
        phase_of "pledge_to_verify"
          (diffs (fun i ->
               match (i.signed_at, i.first_verified_at) with
               | Some s, Some v when v >= s -> Some (v -. s)
               | _ -> None));
        phase_of "verify_to_accept"
          (diffs (fun i ->
               match (i.first_verified_at, i.answered_at) with
               | Some v, Some a when a >= v -> Some (a -. v)
               | _ -> None));
      ];
  }

let client_rows t =
  finalize t;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i : info) ->
      let row =
        match Hashtbl.find_opt tbl i.client with
        | Some r -> r
        | None ->
          let r =
            ref { client = i.client; issued = 0; accepted = 0; degraded = 0; gave_up = 0; outstanding = 0 }
          in
          Hashtbl.add tbl i.client r;
          r
      in
      let r = !row in
      let r = { r with issued = r.issued + 1 } in
      let r =
        match i.answered_at with
        | None -> { r with outstanding = r.outstanding + 1 }
        | Some _ ->
          if i.outcome = "accepted" then { r with accepted = r.accepted + 1 }
          else if i.outcome = "gave-up" then { r with gave_up = r.gave_up + 1 }
          else if is_degraded i then { r with degraded = r.degraded + 1 }
          else r
      in
      row := r)
    (infos t);
  Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
  |> List.sort (fun a b -> compare a.client b.client)

let slave_rows t =
  finalize t;
  let accusations = List.sort compare (List.rev t.accusations) in
  let first_accusation slave =
    List.find_opt (fun (_, s) -> s = slave) accusations |> Option.map fst
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      if i.served_by >= 0 && i.outcome = "accepted" then begin
        let served, lied =
          match Hashtbl.find_opt tbl i.served_by with Some (s, l) -> (s, l) | None -> (0, 0)
        in
        Hashtbl.replace tbl i.served_by (served + 1, if i.lied then lied + 1 else lied)
      end)
    (infos t);
  (* Slaves that were accused without serving any accepted read still
     deserve a row (e.g. caught by a double-check before acceptance). *)
  List.iter
    (fun (_, s) -> if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s (0, 0))
    accusations;
  Hashtbl.fold
    (fun slave (served, lied_served) acc ->
      let first_accused_at = first_accusation slave in
      let reads_before_detection =
        match first_accused_at with
        | None -> None
        | Some cutoff ->
          Some
            (List.length
               (List.filter
                  (fun i ->
                    i.served_by = slave && i.outcome = "accepted"
                    && match i.answered_at with
                       | Some a -> a <= cutoff +. 1e-9
                       | None -> false)
                  (infos t)))
      in
      let detection_latency =
        match first_accused_at with
        | None -> None
        | Some cutoff ->
          (* first lied read accepted from this slave -> accusation *)
          List.filter_map
            (fun i ->
              if i.served_by = slave && i.lied && i.outcome = "accepted" then i.answered_at
              else None)
            (infos t)
          |> function
          | [] -> None
          | times -> Some (cutoff -. List.fold_left Float.min infinity times)
      in
      { slave; served; lied_served; first_accused_at; reads_before_detection; detection_latency }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.slave b.slave)

(* -- rendering --------------------------------------------------------- *)

let opt_num = function Some x -> Json.Num x | None -> Json.Null

let json_of_info i =
  Json.Obj
    [
      ("request", Json.Int i.request);
      ("client", Json.Int i.client);
      ("mode", Json.Str i.mode);
      ("issued_at", Json.Num i.issued_at);
      ("signed_at", opt_num i.signed_at);
      ("signed_by", Json.Int i.signed_by);
      ("lied", Json.Bool i.lied);
      ("verify_ok", Json.Int i.verify_ok);
      ("verify_failed", Json.Int i.verify_failed);
      ("double_check", (match i.double_check with Some s -> Json.Str s | None -> Json.Null));
      ("answered_at", opt_num i.answered_at);
      ("outcome", (if i.outcome = "" then Json.Null else Json.Str i.outcome));
      ("served_by", Json.Int i.served_by);
      ("version", Json.Int i.version);
      ("latency", Json.Num i.latency);
      ("detected_at", opt_num i.detected_at);
    ]

let jsonl t =
  finalize t;
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Buffer.add_string buf (Json.to_string (json_of_info i));
      Buffer.add_char buf '\n')
    (infos t);
  Buffer.contents buf

let json_of_summary s =
  Json.Obj
    [
      ("issued", Json.Int s.issued);
      ("completed", Json.Int s.completed);
      ("accepted", Json.Int s.accepted);
      ("by_master", Json.Int s.by_master);
      ("gave_up", Json.Int s.gave_up);
      ("outstanding", Json.Int s.outstanding);
      ("double_checked", Json.Int s.double_checked);
      ("degraded", Json.Int s.degraded);
      ("lied_served", Json.Int s.lied_served);
      ("detected_lied", Json.Int s.detected_lied);
      ("e2e_mean", Json.Num s.e2e_mean);
      ("e2e_p99", Json.Num s.e2e_p99);
      ("e2e_max", Json.Num s.e2e_max);
      ("detection_mean", Json.Num s.detection_mean);
      ("detection_max", Json.Num s.detection_max);
      ( "critical_path",
        Json.Arr
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("phase", Json.Str p.phase);
                   ("count", Json.Int p.count);
                   ("mean", Json.Num p.mean);
                   ("max", Json.Num p.max);
                 ])
             s.critical_path) );
    ]

let pp_summary fmt s =
  Format.fprintf fmt
    "reads: %d issued, %d accepted, %d by-master (%d degraded), %d gave up, %d outstanding@."
    s.issued s.accepted s.by_master s.degraded s.gave_up s.outstanding;
  Format.fprintf fmt "latency: mean %.4fs  p99 %.4fs  max %.4fs@." s.e2e_mean s.e2e_p99
    s.e2e_max;
  if s.lied_served > 0 then
    Format.fprintf fmt
      "lied reads served: %d (%d later detected; detection latency mean %.3fs max %.3fs)@."
      s.lied_served s.detected_lied s.detection_mean s.detection_max;
  List.iter
    (fun p ->
      if p.count > 0 then
        Format.fprintf fmt "phase %-18s n=%-6d mean %.6fs  max %.6fs@." p.phase p.count
          p.mean p.max)
    s.critical_path
