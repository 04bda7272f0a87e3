module Prng = Secrep_crypto.Prng
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value

type weights = { point : float; range : float; grep : float; aggregate : float }

let default_weights = { point = 0.70; range = 0.15; grep = 0.10; aggregate = 0.05 }

type t = {
  rng : Prng.t;
  keys : string array;
  weights : weights;
  zipf : Zipf.t;
  mutable generated : int;
  mutable next_write_seq : int;
}

(* Zipf exponent of point-read key popularity. *)
let zipf_s = 0.9

let create ~rng ~keys ?(weights = default_weights) () =
  if Array.length keys = 0 then invalid_arg "Mix.create: no keys";
  let total = weights.point +. weights.range +. weights.grep +. weights.aggregate in
  if total <= 0.0 then invalid_arg "Mix.create: weights must sum to a positive value";
  {
    rng;
    keys;
    weights;
    zipf = Zipf.create ~n:(Array.length keys) ~s:zipf_s;
    generated = 0;
    next_write_seq = 0;
  }

let popular_key t = t.keys.(Zipf.sample t.zipf t.rng)

let grep_patterns =
  [| "deluxe"; "wireless"; "novel"; "model [0-9]+"; "replication"; "part [0-5]" |]

let agg_fields = [| "price"; "stock"; "citations"; "year" |]

let next_query t =
  t.generated <- t.generated + 1;
  let u = Prng.float t.rng in
  let w = t.weights in
  let total = w.point +. w.range +. w.grep +. w.aggregate in
  let u = u *. total in
  if u < w.point then Query.point_read (popular_key t)
  else if u < w.point +. w.range then begin
    let i = Prng.int t.rng (Array.length t.keys) in
    let span = 1 + Prng.int t.rng 20 in
    let j = min (Array.length t.keys - 1) (i + span) in
    let lo = min t.keys.(i) t.keys.(j) and hi = max t.keys.(i) t.keys.(j) in
    Query.Select
      { from = Query.Key_range { lo; hi }; where = Query.True; project = None; limit = None }
  end
  else if u < w.point +. w.range +. w.grep then
    Query.grep (Prng.pick t.rng grep_patterns)
  else begin
    let field = Prng.pick t.rng agg_fields in
    let agg =
      match Prng.int t.rng 4 with
      | 0 -> Query.Count
      | 1 -> Query.Sum field
      | 2 -> Query.Min field
      | _ -> Query.Avg field
    in
    Query.Aggregate { from = Query.All; where = Query.True; agg }
  end

let next_write t =
  let key = popular_key t in
  t.next_write_seq <- t.next_write_seq + 1;
  if Prng.bool t.rng then
    Oplog.Set_field { key; field = "price"; value = Value.Float (1.0 +. (Prng.float t.rng *. 499.0)) }
  else Oplog.Set_field { key; field = "stock"; value = Value.Int (Prng.int t.rng 1000) }

let queries_generated t = t.generated
