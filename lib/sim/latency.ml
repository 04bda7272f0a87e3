module Prng = Secrep_crypto.Prng

type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }

let validate = function
  | Constant c -> if c < 0.0 then invalid_arg "Latency.Constant: negative"
  | Uniform { lo; hi } ->
    if lo < 0.0 || hi < lo then invalid_arg "Latency.Uniform: need 0 <= lo <= hi"
  | Exponential { mean; floor } ->
    if mean <= 0.0 || floor < 0.0 then invalid_arg "Latency.Exponential: bad parameters"

let sample t g =
  match t with
  | Constant c -> c
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. Prng.float g)
  | Exponential { mean; floor } -> floor +. Prng.exponential g ~mean

let scale t factor =
  if factor <= 0.0 then invalid_arg "Latency.scale: factor must be positive";
  match t with
  | Constant c -> Constant (c *. factor)
  | Uniform { lo; hi } -> Uniform { lo = lo *. factor; hi = hi *. factor }
  | Exponential { mean; floor } ->
    Exponential { mean = mean *. factor; floor = floor *. factor }
