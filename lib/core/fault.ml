type lie_mode =
  | Corrupt_result
  | Collude of string
  | Stale_state
  | Bad_signature
  | Omit_result
  | Replay_pledge
  | Equivocate of { clique : int list }
  | Adaptive of { threshold : float }
  | Flaky_omit of { burst : int }

type behavior =
  | Honest
  | Malicious of { probability : float; mode : lie_mode; from_time : float }

type state = {
  mutable pressure : float;
  mutable pressure_at : float;
  mutable quiet_until : float;
  mutable burst_left : int;
}

let initial_state () =
  { pressure = 0.0; pressure_at = 0.0; quiet_until = neg_infinity; burst_left = 0 }

(* E-folding time of the audit-pressure estimate, seconds. *)
let pressure_tau = 30.0

let pressure state ~now =
  state.pressure *. exp (-.Float.max 0.0 (now -. state.pressure_at) /. pressure_tau)

let bump_pressure state ~now ~amount =
  state.pressure <- pressure state ~now +. amount;
  state.pressure_at <- now

let note_near_miss state ~now ~cooldown =
  state.quiet_until <- Float.max state.quiet_until (now +. cooldown)

type decision = Act of lie_mode | Suppress of string | Pass

let decide behavior ~now ~client state g =
  match behavior with
  | Honest -> Pass
  | Malicious { probability; mode; from_time } ->
    if now < from_time then Pass
    else begin
      match mode with
      | Corrupt_result | Collude _ | Stale_state | Bad_signature | Omit_result
      | Replay_pledge ->
        if Secrep_crypto.Prng.bernoulli g probability then Act mode else Pass
      | Equivocate { clique } ->
        if List.mem client clique then Suppress "clique-member"
        else if Secrep_crypto.Prng.bernoulli g probability then Act mode
        else Pass
      | Adaptive { threshold } ->
        if now < state.quiet_until then Suppress "quiet-after-near-miss"
        else if pressure state ~now >= threshold then Suppress "audit-pressure"
        else if Secrep_crypto.Prng.bernoulli g probability then Act mode
        else Pass
      | Flaky_omit { burst } ->
        if state.burst_left > 0 then begin
          state.burst_left <- state.burst_left - 1;
          Act mode
        end
        else if Secrep_crypto.Prng.bernoulli g probability then begin
          state.burst_left <- max 0 (burst - 1);
          Act mode
        end
        else Pass
    end

let mode_name = function
  | Corrupt_result -> "corrupt-result"
  | Collude tag -> "collude:" ^ tag
  | Stale_state -> "stale-state"
  | Bad_signature -> "bad-signature"
  | Omit_result -> "omit-result"
  | Replay_pledge -> "replay-pledge"
  | Equivocate { clique } ->
    "equivocate:" ^ String.concat "," (List.map string_of_int clique)
  | Adaptive { threshold } -> Printf.sprintf "adaptive:%.3g" threshold
  | Flaky_omit { burst } -> Printf.sprintf "flaky-omit:%d" burst

let mode_of_string s =
  let unknown () = Error (Printf.sprintf "unknown lie mode %S" s) in
  match s with
  | "corrupt" | "corrupt-result" -> Ok Corrupt_result
  | "stale" | "stale-state" -> Ok Stale_state
  | "bad-signature" -> Ok Bad_signature
  | "omit" | "omit-result" -> Ok Omit_result
  | "replay" | "replay-pledge" -> Ok Replay_pledge
  | _ -> (
    match String.index_opt s ':' with
    | None -> unknown ()
    | Some i when i = String.length s - 1 -> unknown ()
    | Some i -> (
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match String.sub s 0 i with
      | "collude" -> Ok (Collude arg)
      | "equivocate" ->
        let id part = int_of_string_opt (String.trim part) in
        let ids = List.map id (String.split_on_char ',' arg) in
        if List.mem None ids then
          Error (Printf.sprintf "equivocate clique %S is not a comma list of client ids" arg)
        else Ok (Equivocate { clique = List.filter_map Fun.id ids })
      | "adaptive" -> (
        match float_of_string_opt arg with
        | Some threshold when threshold > 0.0 -> Ok (Adaptive { threshold })
        | _ -> Error (Printf.sprintf "adaptive threshold %S is not a positive number" arg))
      | "flaky-omit" -> (
        match int_of_string_opt arg with
        | Some burst when burst >= 1 -> Ok (Flaky_omit { burst })
        | _ -> Error (Printf.sprintf "flaky-omit burst %S is not a positive int" arg))
      | _ -> unknown ()))

let describe = function
  | Honest -> "honest"
  | Malicious { probability; mode; from_time } ->
    Printf.sprintf "malicious(%s, p=%.3g, from t=%.3g)" (mode_name mode) probability from_time
