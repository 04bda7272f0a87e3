(* Cross-shard traffic shape: which content a request lands on.

   Popularity over contents is Zipfian (a few hot catalogues take most
   of the traffic), independent of the per-shard key skew a Mix applies
   within the chosen content.  The diurnal skew shift rotates which
   content holds each popularity rank: every [rotate_period] simulated
   seconds the hot spot moves to the next shard, the regime where a
   static placement would overload one slice of the pool at a time. *)

module Prng = Secrep_crypto.Prng

type t = {
  rng : Prng.t;
  zipf : Zipf.t;
  n_shards : int;
  rotate_period : float option;
}

let create ~rng ~n_shards ?(s = 1.0) ?rotate_period () =
  if n_shards < 1 then invalid_arg "Cross.create: n_shards must be at least 1";
  (match rotate_period with
  | Some p when p <= 0.0 -> invalid_arg "Cross.create: rotate_period must be positive"
  | _ -> ());
  { rng; zipf = Zipf.create ~n:n_shards ~s; n_shards; rotate_period }

(* The target shard for a request arriving at [now]. *)
let shard_at t ~now =
  let rank = Zipf.sample t.zipf t.rng in
  match t.rotate_period with
  | None -> rank
  | Some period ->
    let shift = int_of_float (Float.floor (now /. period)) in
    (rank + shift) mod t.n_shards

(* Pre-computed Poisson arrival schedule: the deployment runs K
   independent simulators, so arrivals are drawn up front (pure) and
   each one is scheduled on its target shard's own clock. *)
let arrivals t ~rate ~duration =
  if rate <= 0.0 || duration <= 0.0 then []
  else begin
    let acc = ref [] in
    let now = ref 0.0 in
    let continue = ref true in
    while !continue do
      now := !now +. Prng.exponential t.rng ~mean:(1.0 /. rate);
      if !now >= duration then continue := false
      else acc := (!now, shard_at t ~now:!now) :: !acc
    done;
    List.rev !acc
  end
