(* Arbitrary-precision naturals over 26-bit limbs stored little-endian in an
   int array.  26 bits is chosen so that a limb product (52 bits) plus the
   running carries of schoolbook multiplication and of Knuth division stay
   well inside a 63-bit native int. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array
(* Invariant: normalized (no trailing zero limbs); zero = [||];
   every limb is in [0, base). *)

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1
let two = of_int 2

let to_int_opt (a : t) =
  (* Native ints hold 62 usable bits: at most 3 limbs with the top one
     small enough. *)
  let n = Array.length a in
  if n > 3 then None
  else begin
    let rec go i acc =
      if i < 0 then Some acc
      else
        let acc' = (acc lsl limb_bits) lor a.(i) in
        if acc' < acc then None else go (i - 1) acc'
    in
    go (n - 1) 0
  end

let is_even (a : t) = is_zero a || a.(0) land 1 = 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

(* [a - b] assuming [a >= b]. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: underflow";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  normalize r

let succ a = add a one
let pred a = sub a one

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let bit_length (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * limb_bits) + width 0
  end

let test_bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) s =
  if s < 0 then invalid_arg "Bignum.shift_left: negative shift";
  if is_zero a || s = 0 then a
  else begin
    let limb_shift = s / limb_bits and bit_shift = s mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) s =
  if s < 0 then invalid_arg "Bignum.shift_right: negative shift";
  if s = 0 then a
  else begin
    let limb_shift = s / limb_bits and bit_shift = s mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb: plain schoolbook from the most significant
   limb down; the partial remainder times the base fits in 52 bits. *)
let divmod_small (a : t) d =
  assert (d > 0 && d < base);
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, of_int !r)

(* Knuth TAOCP vol. 2, Algorithm D, specialised to 26-bit limbs. *)
let divmod_knuth (u : t) (v : t) =
  let n = Array.length v in
  let m = Array.length u - n in
  assert (n >= 2 && m >= 0);
  (* D1: normalize so the top limb of v has its high bit set. *)
  let s =
    let top = v.(n - 1) in
    let rec go w = if top lsr w = 0 then w else go (w + 1) in
    limb_bits - go 0
  in
  let vn = Array.make n 0 in
  for i = n - 1 downto 0 do
    let hi = (v.(i) lsl s) land mask in
    let lo = if i > 0 && s > 0 then v.(i - 1) lsr (limb_bits - s) else 0 in
    vn.(i) <- hi lor lo
  done;
  let un = Array.make (m + n + 1) 0 in
  un.(m + n) <- if s > 0 then u.(m + n - 1) lsr (limb_bits - s) else 0;
  for i = m + n - 1 downto 0 do
    let hi = (u.(i) lsl s) land mask in
    let lo = if i > 0 && s > 0 then u.(i - 1) lsr (limb_bits - s) else 0 in
    un.(i) <- hi lor lo
  done;
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* D3: estimate the quotient digit from the top two limbs. *)
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) and rhat = ref (num mod vn.(n - 1)) in
    let continue = ref true in
    while !continue do
      if !qhat >= base
         || !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue := false
      end
      else continue := false
    done;
    (* D4: multiply and subtract. *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = un.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin un.(i + j) <- d + base; borrow := 1 end
      else begin un.(i + j) <- d; borrow := 0 end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* D6: the estimate was one too large; add back. *)
      un.(j + n) <- d + base;
      q.(j) <- !qhat - 1;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let sum = un.(i + j) + vn.(i) + !c in
        un.(i + j) <- sum land mask;
        c := sum lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end
    else begin
      un.(j + n) <- d;
      q.(j) <- !qhat
    end
  done;
  (* D8: denormalize the remainder. *)
  let r = normalize (Array.sub un 0 n) in
  (normalize q, shift_right r s)

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_small a b.(0)
  else divmod_knuth a b

let rem a b = snd (divmod a b)

let mod_exp_schoolbook ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let b = rem b modulus in
    let bits = bit_length exp in
    let acc = ref one in
    for i = bits - 1 downto 0 do
      acc := rem (mul !acc !acc) modulus;
      if test_bit exp i then acc := rem (mul !acc b) modulus
    done;
    !acc
  end

module Mont = struct
  (* Montgomery arithmetic over the 26-bit limbs.  For an odd modulus m
     of k limbs, R = 2^(26k) and values live as residues a*R mod m in
     padded k-limb arrays.  The word-at-a-time CIOS product interleaves
     multiplication with the reduction, so the hot loop is a single
     fused pass with no division anywhere: limb products (52 bits) plus
     carries stay inside the native int exactly as in [mul]. *)

  type ctx = {
    m : t;  (** the modulus itself, normalized; odd and > 1 *)
    limbs : int array;  (** modulus limbs, length [k] *)
    k : int;
    m0' : int;  (** -m^-1 mod 2^26 *)
    r2 : int array;  (** R^2 mod m, padded to [k] limbs *)
    one_m : int array;  (** R mod m = Montgomery form of 1 *)
    one_lit : int array;  (** literal 1 padded to [k] limbs, for from_mont *)
  }

  let modulus ctx = ctx.m

  let pad k (a : t) =
    let r = Array.make k 0 in
    Array.blit a 0 r 0 (Array.length a);
    r

  (* c = mont(a, b) = a * b * R^-1 mod m, all as k-limb arrays, using
     the coarsely-integrated operand-scanning (CIOS) schedule.  Inputs
     must be < m; the output is fully reduced. *)
  let mul_raw ctx (a : int array) (b : int array) : int array =
    let k = ctx.k and m = ctx.limbs and m0' = ctx.m0' in
    let t = Array.make (k + 2) 0 in
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let c = ref 0 in
      for j = 0 to k - 1 do
        let x = t.(j) + (ai * b.(j)) + !c in
        t.(j) <- x land mask;
        c := x lsr limb_bits
      done;
      let x = t.(k) + !c in
      t.(k) <- x land mask;
      t.(k + 1) <- x lsr limb_bits;
      (* u makes t divisible by 2^26; add u*m and shift one limb down. *)
      let u = (t.(0) * m0') land mask in
      let c = ref ((t.(0) + (u * m.(0))) lsr limb_bits) in
      for j = 1 to k - 1 do
        let x = t.(j) + (u * m.(j)) + !c in
        t.(j - 1) <- x land mask;
        c := x lsr limb_bits
      done;
      let x = t.(k) + !c in
      t.(k - 1) <- x land mask;
      t.(k) <- t.(k + 1) + (x lsr limb_bits);
      t.(k + 1) <- 0
    done;
    (* CIOS leaves t < 2m (m < R), so at most one subtraction. *)
    let ge =
      t.(k) <> 0
      ||
      let rec cmp i = if i < 0 then true else if t.(i) <> m.(i) then t.(i) > m.(i) else cmp (i - 1) in
      cmp (k - 1)
    in
    let r = Array.sub t 0 k in
    if ge then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let d = r.(i) - m.(i) - !borrow in
        if d < 0 then begin
          r.(i) <- d + base;
          borrow := 1
        end
        else begin
          r.(i) <- d;
          borrow := 0
        end
      done
    end;
    r

  let make (m : t) : ctx option =
    if Array.length m = 0 || m.(0) land 1 = 0 || equal m one then None
    else begin
      let k = Array.length m in
      (* -m[0]^-1 mod 2^26 by Hensel lifting: each step doubles the
         bits of precision, 1 -> 32 in five steps. *)
      let m0 = m.(0) in
      let inv = ref 1 in
      for _ = 1 to 5 do
        let t = (m0 * !inv) land mask in
        inv := (!inv * ((2 - t) land mask)) land mask
      done;
      assert ((m0 * !inv) land mask = 1);
      let m0' = (base - !inv) land mask in
      let r2 = pad k (rem (shift_left one (2 * limb_bits * k)) m) in
      let one_m = pad k (rem (shift_left one (limb_bits * k)) m) in
      Some { m; limbs = pad k m; k; m0'; r2; one_m; one_lit = pad k one }
    end

  let to_mont ctx a = normalize (mul_raw ctx (pad ctx.k (rem a ctx.m)) ctx.r2)
  let from_mont ctx a = normalize (mul_raw ctx (pad ctx.k a) ctx.one_lit)
  let one ctx = normalize (Array.copy ctx.one_m)

  let mul ctx a b =
    normalize (mul_raw ctx (pad ctx.k (rem a ctx.m)) (pad ctx.k (rem b ctx.m)))

  (* b^e mod m as a Montgomery residue (k-limb array). *)
  let exp_raw ctx (b : t) (e : t) : int array =
    let x = mul_raw ctx (pad ctx.k (rem b ctx.m)) ctx.r2 in
    let ebits = bit_length e in
    if ebits = 0 then Array.copy ctx.one_m
    else if Array.length e = 1 && e.(0) = 65537 then begin
      (* The RSA verify exponent: 16 squarings and one multiply, no
         window table to fill. *)
      let acc = ref x in
      for _ = 1 to 16 do
        acc := mul_raw ctx !acc !acc
      done;
      mul_raw ctx !acc x
    end
    else if ebits <= 8 then begin
      (* Short exponents don't amortize a window table. *)
      let acc = ref (Array.copy x) in
      for i = ebits - 2 downto 0 do
        acc := mul_raw ctx !acc !acc;
        if test_bit e i then acc := mul_raw ctx !acc x
      done;
      !acc
    end
    else begin
      (* 4-bit sliding windows over the precomputed odd powers
         x^1, x^3, ..., x^15: one multiply per window instead of one
         per set bit. *)
      let x2 = mul_raw ctx x x in
      let odd = Array.make 8 x in
      for i = 1 to 7 do
        odd.(i) <- mul_raw ctx odd.(i - 1) x2
      done;
      let acc = ref (Array.copy ctx.one_m) in
      let i = ref (ebits - 1) in
      while !i >= 0 do
        if not (test_bit e !i) then begin
          acc := mul_raw ctx !acc !acc;
          decr i
        end
        else begin
          (* Largest window of <= 4 bits ending in a set bit. *)
          let l = ref (max (!i - 3) 0) in
          while not (test_bit e !l) do
            incr l
          done;
          let w = ref 0 in
          for j = !i downto !l do
            w := (!w lsl 1) lor (if test_bit e j then 1 else 0)
          done;
          for _ = !l to !i do
            acc := mul_raw ctx !acc !acc
          done;
          acc := mul_raw ctx !acc odd.((!w - 1) / 2);
          i := !l - 1
        end
      done;
      !acc
    end

  let exp_mont ctx ~base:b ~exp:e = normalize (exp_raw ctx b e)
  let exp ctx ~base:b ~exp:e = normalize (mul_raw ctx (exp_raw ctx b e) ctx.one_lit)
end

let mod_exp ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  match Mont.make modulus with
  | Some ctx -> Mont.exp ctx ~base:b ~exp
  | None -> mod_exp_schoolbook ~base:b ~exp ~modulus (* even modulus, or 1 *)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Signed values, needed only inside the extended Euclid below. *)
type signed = { neg : bool; mag : t }

let s_of t = { neg = false; mag = t }

let s_sub x y =
  (* x - y for signed values *)
  match (x.neg, y.neg) with
  | false, true -> { neg = false; mag = add x.mag y.mag }
  | true, false -> { neg = not (is_zero (add x.mag y.mag)); mag = add x.mag y.mag }
  | false, false ->
    if compare x.mag y.mag >= 0 then { neg = false; mag = sub x.mag y.mag }
    else { neg = true; mag = sub y.mag x.mag }
  | true, true ->
    if compare y.mag x.mag >= 0 then { neg = false; mag = sub y.mag x.mag }
    else { neg = true; mag = sub x.mag y.mag }

let s_mul_nat x n =
  let mag = mul x.mag n in
  { neg = x.neg && not (is_zero mag); mag }

let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  (* Extended Euclid keeping only the Bezout coefficient of [a]. *)
  let rec go old_r r old_t t =
    if is_zero r then (old_r, old_t)
    else begin
      let qn, rn = divmod old_r r in
      go r rn t (s_sub old_t (s_mul_nat t qn))
    end
  in
  let g, t = go (rem a m) m (s_of one) (s_of zero) in
  if not (equal g one) then None
  else begin
    let x = rem t.mag m in
    if t.neg && not (is_zero x) then Some (sub m x) else Some x
  end

(* Radix conversions extract or insert digits directly at their bit
   offset in the limb array, one pass over the output: the old
   shift-or-divide per digit made these O(limbs * digits). *)

let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((len * 8) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and accbits = ref 0 and limb = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !accbits);
    accbits := !accbits + 8;
    if !accbits >= limb_bits then begin
      r.(!limb) <- !acc land mask;
      incr limb;
      acc := !acc lsr limb_bits;
      accbits := !accbits - limb_bits
    end
  done;
  if !accbits > 0 && !limb < Array.length r then r.(!limb) <- !acc;
  normalize r

let to_bytes_be ?length (a : t) =
  let nbytes = (bit_length a + 7) / 8 in
  let total =
    match length with
    | None -> max nbytes 1
    | Some l ->
      if nbytes > l then invalid_arg "Bignum.to_bytes_be: value too large";
      l
  in
  let buf = Bytes.make total '\000' in
  let la = Array.length a in
  for i = 0 to nbytes - 1 do
    (* i-th byte counting from the least-significant end. *)
    let off = 8 * i in
    let limb = off / limb_bits and sh = off mod limb_bits in
    let v = a.(limb) lsr sh in
    let v =
      if sh > limb_bits - 8 && limb + 1 < la then v lor (a.(limb + 1) lsl (limb_bits - sh))
      else v
    in
    Bytes.set buf (total - 1 - i) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string buf

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bignum.of_hex: bad digit"

let of_hex s =
  let ndigits = ref 0 in
  String.iter (fun c -> if c <> '_' then incr ndigits) s;
  let r = Array.make (((!ndigits * 4) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and accbits = ref 0 and limb = ref 0 in
  for i = String.length s - 1 downto 0 do
    if s.[i] <> '_' then begin
      acc := !acc lor (hex_digit s.[i] lsl !accbits);
      accbits := !accbits + 4;
      if !accbits >= limb_bits then begin
        r.(!limb) <- !acc land mask;
        incr limb;
        acc := !acc lsr limb_bits;
        accbits := !accbits - limb_bits
      end
    end
  done;
  if !accbits > 0 && !limb < Array.length r then r.(!limb) <- !acc;
  normalize r

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let n = (bit_length a + 3) / 4 in
    let la = Array.length a in
    String.init n (fun idx ->
        let off = 4 * (n - 1 - idx) in
        let limb = off / limb_bits and sh = off mod limb_bits in
        let v = a.(limb) lsr sh in
        let v =
          if sh > limb_bits - 4 && limb + 1 < la then v lor (a.(limb + 1) lsl (limb_bits - sh))
          else v
        in
        "0123456789abcdef".[v land 0xf])
  end

(* Decimal digits don't align with limb boundaries, so full linearity is
   out; instead process 7 digits (one sub-limb chunk of 10^7 < 2^26) per
   multiply/divide pass, a 7x fewer-passes version of the old loops. *)
let dec_chunk = 10_000_000
let dec_chunk_digits = 7

let mul_small (a : t) c : t =
  assert (c >= 0 && c < base);
  if c = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * c) + !carry in
      r.(i) <- p land mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let of_decimal s =
  if String.length s = 0 then invalid_arg "Bignum.of_decimal: empty";
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> Buffer.add_char buf c
      | '_' -> ()
      | _ -> invalid_arg "Bignum.of_decimal: bad digit")
    s;
  let s = Buffer.contents buf in
  let n = String.length s in
  if n = 0 then zero
  else begin
    let first =
      let f = n mod dec_chunk_digits in
      if f = 0 then dec_chunk_digits else f
    in
    let r = ref (of_int (int_of_string (String.sub s 0 first))) in
    let i = ref first in
    while !i < n do
      r := add (mul_small !r dec_chunk) (of_int (int_of_string (String.sub s !i dec_chunk_digits)));
      i := !i + dec_chunk_digits
    done;
    !r
  end

let to_decimal (a : t) =
  if is_zero a then "0"
  else begin
    (* Repeated in-place division by 10^7, collecting 7 digits a pass. *)
    let work = Array.copy a in
    let n = ref (Array.length work) in
    let rems = ref [] in
    while !n > 0 do
      let r = ref 0 in
      for i = !n - 1 downto 0 do
        let cur = (!r lsl limb_bits) lor work.(i) in
        work.(i) <- cur / dec_chunk;
        r := cur mod dec_chunk
      done;
      while !n > 0 && work.(!n - 1) = 0 do
        decr n
      done;
      rems := !r :: !rems
    done;
    match !rems with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun r -> Buffer.add_string buf (Printf.sprintf "%07d" r)) rest;
      Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
