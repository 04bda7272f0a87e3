(* xoshiro256** seeded via SplitMix64 (reference: Blackman & Vigna).
   All state is explicit so simulations replay bit-for-bit.  The four
   state words live in one 32-byte buffer and are read and written
   unboxed, so a draw allocates at most its boxed result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix_next (state : int64 ref) =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let st = ref seed in
  let g = Bytes.create 32 in
  for i = 0 to 3 do
    set64 g (8 * i) (splitmix_next st)
  done;
  g

let copy = Bytes.copy

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next_int64 g =
  let s0 = get64 g 0 and s1 = get64 g 8 and s2 = get64 g 16 and s3 = get64 g 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 g 8 (Int64.logxor s1 s2);
  set64 g 0 (Int64.logxor s0 s3);
  set64 g 16 (Int64.logxor s2 t);
  set64 g 24 (rotl s3 45);
  result

let split g = create ~seed:(next_int64 g)

let bits g n =
  if n < 0 || n > 62 then invalid_arg "Prng.bits";
  if n = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next_int64 g) (64 - n)) land ((1 lsl n) - 1)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    (* Rejection sampling over the smallest covering power of two. *)
    let rec width w = if 1 lsl w >= bound then w else width (w + 1) in
    let w = width 1 in
    let rec draw () =
      let v = bits g w in
      if v < bound then v else draw ()
    in
    draw ()
  end

let float g =
  (* 53 uniform bits, the double-precision mantissa width. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11) in
  float_of_int v *. (1.0 /. 9007199254740992.0)

let bool g = bits g 1 = 1

let bernoulli g p =
  if p <= 0.0 then false else if p >= 1.0 then true else float g < p

let exponential g ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float g in
  -.mean *. log u

let bytes g n =
  String.init n (fun _ -> Char.chr (bits g 8))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick g arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int g (Array.length arr))
