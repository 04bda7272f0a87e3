type t = {
  name : string;
  mutable samples : float array;
  mutable count : int;
  mutable sorted : bool;
  mutable sum : float;
  mutable sum_sq : float;
}

let create ?(name = "histogram") () =
  { name; samples = [||]; count = 0; sorted = true; sum = 0.0; sum_sq = 0.0 }

let add t v =
  if Float.is_nan v then invalid_arg "Histogram.add: NaN";
  let cap = Array.length t.samples in
  if t.count = cap then begin
    let fresh = Array.make (max 64 (2 * cap)) 0.0 in
    Array.blit t.samples 0 fresh 0 t.count;
    t.samples <- fresh
  end;
  t.samples.(t.count) <- v;
  t.count <- t.count + 1;
  t.sorted <- false;
  t.sum <- t.sum +. v;
  t.sum_sq <- t.sum_sq +. (v *. v)

let count t = t.count
let is_empty t = t.count = 0

let require_nonempty t fn =
  if t.count = 0 then invalid_arg (Printf.sprintf "Histogram.%s: empty (%s)" fn t.name)

let ensure_sorted t =
  if not t.sorted then begin
    let view = Array.sub t.samples 0 t.count in
    Array.sort Float.compare view;
    Array.blit view 0 t.samples 0 t.count;
    t.sorted <- true
  end

let mean t =
  require_nonempty t "mean";
  t.sum /. float_of_int t.count

let min_value t =
  require_nonempty t "min_value";
  ensure_sorted t;
  t.samples.(0)

let max_value t =
  require_nonempty t "max_value";
  ensure_sorted t;
  t.samples.(t.count - 1)

let stddev t =
  require_nonempty t "stddev";
  let n = float_of_int t.count in
  let m = t.sum /. n in
  let var = Float.max 0.0 ((t.sum_sq /. n) -. (m *. m)) in
  sqrt var

let percentile t p =
  require_nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
  let idx = if rank <= 0 then 0 else min (t.count - 1) (rank - 1) in
  t.samples.(idx)

let name t = t.name
let sum t = t.sum
