let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

let random_below g n =
  (* Uniform in [0, n) by rejection over bit_length n bits. *)
  let bits = Bignum.bit_length n in
  let nbytes = (bits + 7) / 8 in
  let rec draw () =
    let raw = Prng.bytes g nbytes in
    let v = Bignum.of_bytes_be raw in
    let v = Bignum.shift_right v ((nbytes * 8) - bits) in
    if Bignum.compare v n < 0 then v else draw ()
  in
  draw ()

(* true = [a] witnesses that [n] is composite.  The whole chain — the
   initial a^d and the s-1 squarings — stays in Montgomery form;
   residues are compared against the precomputed images of 1 and n-1
   (the correspondence is a bijection, so comparing in either domain is
   equivalent). *)
let miller_rabin_witness (ctx, one_m, n1_m) d s a =
  let x = ref (Bignum.Mont.exp_mont ctx ~base:a ~exp:d) in
  if Bignum.equal !x one_m || Bignum.equal !x n1_m then false
  else begin
    let witness = ref true in
    (try
       for _ = 1 to s - 1 do
         x := Bignum.Mont.mul ctx !x !x;
         if Bignum.equal !x n1_m then begin
           witness := false;
           raise Exit
         end
       done
     with Exit -> ());
    !witness
  end

(* Random witnesses per test: a composite passes with probability at
   most 4^-24. *)
let rounds = 24

let is_probable_prime g n =
  match Bignum.to_int_opt n with
  | Some v when v < 2 -> false
  | Some v when List.mem v small_primes -> true
  | _ ->
    if Bignum.is_even n then false
    else if
      List.exists
        (fun p -> Bignum.is_zero (Bignum.rem n (Bignum.of_int p)) && Bignum.compare n (Bignum.of_int p) <> 0)
        small_primes
    then false
    else begin
      (* n - 1 = d * 2^s with d odd *)
      let n1 = Bignum.pred n in
      let rec split d s = if Bignum.is_even d then split (Bignum.shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n1 0 in
      (* One Montgomery context shared by all rounds for this n; n is
         odd and past the small primes here, so the context exists. *)
      let ctx =
        let c = Option.get (Bignum.Mont.make n) in
        (c, Bignum.Mont.one c, Bignum.Mont.to_mont c n1)
      in
      let three = Bignum.of_int 3 in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          (* a uniform in [2, n-2] *)
          let span = Bignum.sub n three in
          let a = Bignum.add (random_below g span) Bignum.two in
          if miller_rabin_witness ctx d s a then false else rounds_left (k - 1)
        end
      in
      rounds_left rounds
    end

let random_prime g ~bits =
  if bits < 3 then invalid_arg "Mr_prime.random_prime: bits too small";
  let nbytes = (bits + 7) / 8 in
  let rec attempt () =
    let raw = Bytes.of_string (Prng.bytes g nbytes) in
    let candidate = Bignum.shift_right (Bignum.of_bytes_be (Bytes.to_string raw)) ((nbytes * 8) - bits) in
    (* Force the top bit (exact size) and the bottom bit (odd). *)
    let top = Bignum.shift_left Bignum.one (bits - 1) in
    let candidate =
      let c = if Bignum.test_bit candidate (bits - 1) then candidate else Bignum.add candidate top in
      if Bignum.is_even c then Bignum.succ c else c
    in
    (* Walk odd numbers from the candidate; re-draw if we overflow size. *)
    let rec walk c tries =
      if tries = 0 || Bignum.bit_length c > bits then attempt ()
      else if is_probable_prime g c then c
      else walk (Bignum.add c Bignum.two) (tries - 1)
    in
    walk candidate 512
  in
  attempt ()
