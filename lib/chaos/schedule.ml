module Prng = Secrep_crypto.Prng

type action =
  | Cut_slave of int
  | Heal_slave of int
  | Cut_master of int
  | Heal_master of int
  | Cut_client of int
  | Heal_client of int
  | Cut_auditor
  | Heal_auditor
  | Crash_slave of int
  | Recover_slave of int
  | Crash_master of int
  | Loss_burst of float
  | Loss_normal
  | Latency_spike of float
  | Latency_normal
  | Duplicate_burst of float
  | Duplicate_normal
  | Reorder_burst of int
  | Reorder_normal
  | Bitflip_burst of float
  | Bitflip_normal

type entry = { time : float; action : action }
type t = entry list

let sort t = List.stable_sort (fun a b -> Float.compare a.time b.time) t

let describe = function
  | Cut_slave i -> Printf.sprintf "cut slave %d" i
  | Heal_slave i -> Printf.sprintf "heal slave %d" i
  | Cut_master i -> Printf.sprintf "cut master %d" i
  | Heal_master i -> Printf.sprintf "heal master %d" i
  | Cut_client i -> Printf.sprintf "cut client %d" i
  | Heal_client i -> Printf.sprintf "heal client %d" i
  | Cut_auditor -> "cut auditor"
  | Heal_auditor -> "heal auditor"
  | Crash_slave i -> Printf.sprintf "crash slave %d" i
  | Recover_slave i -> Printf.sprintf "recover slave %d" i
  | Crash_master i -> Printf.sprintf "crash master %d" i
  | Loss_burst p -> Printf.sprintf "loss %g" p
  | Loss_normal -> "loss normal"
  | Latency_spike f -> Printf.sprintf "latency x%g" f
  | Latency_normal -> "latency normal"
  | Duplicate_burst p -> Printf.sprintf "duplicate %g" p
  | Duplicate_normal -> "duplicate normal"
  | Reorder_burst n -> Printf.sprintf "reorder %d" n
  | Reorder_normal -> "reorder normal"
  | Bitflip_burst p -> Printf.sprintf "bitflip %g" p
  | Bitflip_normal -> "bitflip normal"

let to_string t =
  sort t
  |> List.map (fun { time; action } -> Printf.sprintf "at %g %s" time (describe action))
  |> String.concat "\n"
  |> fun s -> if s = "" then s else s ^ "\n"

(* -- parsing ---------------------------------------------------------- *)

let ( let* ) = Result.bind

let int_of ~line what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "line %d: %s is not an integer: %S" line what s)

let float_of ~line what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "line %d: %s is not a number: %S" line what s)

let parse_action ~line tokens =
  match tokens with
  | [ "cut"; "slave"; i ] ->
    let* i = int_of ~line "slave id" i in
    Ok (Cut_slave i)
  | [ "heal"; "slave"; i ] ->
    let* i = int_of ~line "slave id" i in
    Ok (Heal_slave i)
  | [ "cut"; "master"; i ] ->
    let* i = int_of ~line "master id" i in
    Ok (Cut_master i)
  | [ "heal"; "master"; i ] ->
    let* i = int_of ~line "master id" i in
    Ok (Heal_master i)
  | [ "cut"; "client"; i ] ->
    let* i = int_of ~line "client id" i in
    Ok (Cut_client i)
  | [ "heal"; "client"; i ] ->
    let* i = int_of ~line "client id" i in
    Ok (Heal_client i)
  | [ "cut"; "auditor" ] -> Ok Cut_auditor
  | [ "heal"; "auditor" ] -> Ok Heal_auditor
  | [ "crash"; "slave"; i ] ->
    let* i = int_of ~line "slave id" i in
    Ok (Crash_slave i)
  | [ "recover"; "slave"; i ] ->
    let* i = int_of ~line "slave id" i in
    Ok (Recover_slave i)
  | [ "crash"; "master"; i ] ->
    let* i = int_of ~line "master id" i in
    Ok (Crash_master i)
  | [ "loss"; "normal" ] -> Ok Loss_normal
  | [ "loss"; p ] ->
    let* p = float_of ~line "loss probability" p in
    Ok (Loss_burst p)
  | [ "latency"; "normal" ] -> Ok Latency_normal
  | [ "latency"; f ] when String.length f > 1 && f.[0] = 'x' ->
    let* f = float_of ~line "latency factor" (String.sub f 1 (String.length f - 1)) in
    Ok (Latency_spike f)
  | [ "duplicate"; "normal" ] -> Ok Duplicate_normal
  | [ "duplicate"; p ] ->
    let* p = float_of ~line "duplicate probability" p in
    Ok (Duplicate_burst p)
  | [ "reorder"; "normal" ] -> Ok Reorder_normal
  | [ "reorder"; n ] ->
    let* n = int_of ~line "reorder burst" n in
    Ok (Reorder_burst n)
  | [ "bitflip"; "normal" ] -> Ok Bitflip_normal
  | [ "bitflip"; p ] ->
    let* p = float_of ~line "bitflip probability" p in
    Ok (Bitflip_burst p)
  | _ ->
    Error
      (Printf.sprintf "line %d: unknown action %S" line (String.concat " " tokens))

let parse_line ~line s =
  let s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
  let tokens =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun tok -> tok <> "")
  in
  match tokens with
  | [] -> Ok None
  | "at" :: time :: rest ->
    let* time = float_of ~line "time" time in
    let* action = parse_action ~line rest in
    Ok (Some { time; action })
  | tok :: _ -> Error (Printf.sprintf "line %d: expected \"at TIME ACTION\", got %S" line tok)

let parse text =
  let lines = String.split_on_char '\n' text in
  let* entries =
    List.fold_left
      (fun acc (line, s) ->
        let* acc = acc in
        let* entry = parse_line ~line s in
        Ok (match entry with Some e -> e :: acc | None -> acc))
      (Ok [])
      (List.mapi (fun i s -> (i + 1, s)) lines)
  in
  Ok (sort entries)

(* -- validation ------------------------------------------------------- *)

let validate ?n_masters ?n_slaves ?n_clients t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_id what bound i =
    match bound with
    | Some n when i < 0 || i >= n -> err "%s %d out of range [0, %d)" what i n
    | Some _ | None -> if i < 0 then err "%s %d is negative" what i else Ok ()
  in
  List.fold_left
    (fun acc { time; action } ->
      let* () = acc in
      let* () =
        if Float.is_nan time || time < 0.0 || time = infinity then
          err "entry %S: time %g must be finite and non-negative" (describe action) time
        else Ok ()
      in
      match action with
      | Cut_slave i | Heal_slave i | Crash_slave i | Recover_slave i ->
        check_id "slave" n_slaves i
      | Cut_master i | Heal_master i | Crash_master i -> check_id "master" n_masters i
      | Cut_client i | Heal_client i -> check_id "client" n_clients i
      | Cut_auditor | Heal_auditor | Loss_normal | Latency_normal | Duplicate_normal
      | Reorder_normal | Bitflip_normal ->
        Ok ()
      | Loss_burst p ->
        if p < 0.0 || p >= 1.0 then err "loss %g must be in [0, 1)" p else Ok ()
      | Latency_spike f ->
        if f <= 0.0 || Float.is_nan f then err "latency factor %g must be positive" f
        else Ok ()
      | Duplicate_burst p ->
        if p < 0.0 || p >= 1.0 then err "duplicate %g must be in [0, 1)" p else Ok ()
      | Reorder_burst n ->
        if n < 2 then err "reorder burst %d must be >= 2" n else Ok ()
      | Bitflip_burst p ->
        if p < 0.0 || p >= 1.0 then err "bitflip %g must be in [0, 1)" p else Ok ())
    (Ok ()) t

(* -- generators ------------------------------------------------------- *)

let rolling_partition ~n_slaves ~start ~interval ~outage =
  List.init n_slaves (fun i ->
      let cut = start +. (float_of_int i *. interval) in
      [
        { time = cut; action = Cut_slave i };
        { time = cut +. outage; action = Heal_slave i };
      ])
  |> List.concat |> sort

let random ~rng ~duration ~n_slaves ?(n_masters = 1) ?(n_clients = 0) ?(intensity = 1.0) () =
  if duration <= 0.0 then invalid_arg "Schedule.random: duration must be positive";
  if intensity < 0.0 then invalid_arg "Schedule.random: intensity must be non-negative";
  (* Every window [t, t+w] closes by this horizon so runs end healed. *)
  let horizon = 0.9 *. duration in
  let window rng =
    let t = Prng.float rng *. horizon *. 0.8 in
    let w = (0.05 +. (Prng.float rng *. 0.15)) *. duration in
    (t, Float.min horizon (t +. w))
  in
  let n_windows base = int_of_float (Float.round (float_of_int base *. intensity)) in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  if n_slaves > 0 then begin
    (* slave partitions *)
    for _ = 1 to n_windows (max 1 (n_slaves / 2)) do
      let s = Prng.int rng n_slaves in
      let t0, t1 = window rng in
      push { time = t0; action = Cut_slave s };
      push { time = t1; action = Heal_slave s }
    done;
    (* benign crash-recover churn *)
    for _ = 1 to n_windows (max 1 (n_slaves / 3)) do
      let s = Prng.int rng n_slaves in
      let t0, t1 = window rng in
      push { time = t0; action = Crash_slave s };
      push { time = t1; action = Recover_slave s }
    done
  end;
  (* client cuts *)
  if n_clients > 0 then
    for _ = 1 to n_windows 1 do
      let c = Prng.int rng n_clients in
      let t0, t1 = window rng in
      push { time = t0; action = Cut_client c };
      push { time = t1; action = Heal_client c }
    done;
  (* at most one master fault, and never against a lone master *)
  if n_masters > 1 && Prng.bernoulli rng (Float.min 1.0 (0.5 *. intensity)) then begin
    let m = Prng.int rng n_masters in
    if Prng.bernoulli rng 0.5 then begin
      let t0, t1 = window rng in
      push { time = t0; action = Cut_master m };
      push { time = t1; action = Heal_master m }
    end
    else push { time = Prng.float rng *. horizon; action = Crash_master m }
  end;
  (* auditor outage *)
  if Prng.bernoulli rng (Float.min 1.0 (0.4 *. intensity)) then begin
    let t0, t1 = window rng in
    push { time = t0; action = Cut_auditor };
    push { time = t1; action = Heal_auditor }
  end;
  (* loss burst *)
  if Prng.bernoulli rng (Float.min 1.0 (0.5 *. intensity)) then begin
    let t0, t1 = window rng in
    push { time = t0; action = Loss_burst (0.05 +. (0.3 *. Prng.float rng)) };
    push { time = t1; action = Loss_normal }
  end;
  (* latency spike *)
  if Prng.bernoulli rng (Float.min 1.0 (0.5 *. intensity)) then begin
    let t0, t1 = window rng in
    push { time = t0; action = Latency_spike (2.0 +. (6.0 *. Prng.float rng)) };
    push { time = t1; action = Latency_normal }
  end;
  sort !entries
