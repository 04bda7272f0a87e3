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

let describe = function
  | Honest -> "honest"
  | Malicious { probability; mode; from_time } ->
    Printf.sprintf "malicious(%s, p=%.3g, from t=%.3g)" (mode_name mode) probability from_time
