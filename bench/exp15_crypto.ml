(* E15 — Montgomery-kernel crypto plane: ops/s against the schoolbook
   reference.

   The crypto refactor is a pure speedup: every signature, MAC and
   digest must be bit-identical to the seed schoolbook path.  This
   experiment measures how much faster the hot path got — RSA sign
   (CRT, both halves in Montgomery form) and verify (e=65537 fast
   path) at 256/512/1024-bit keys, plus HMAC with the per-key schedule
   cache against rebuilding the schedule per call — and, for every
   row, cross-checks that both paths produce the same bytes.  The
   schoolbook path is reached through a copy of each key with its
   Montgomery contexts cleared, so nothing global is toggled.

   The >=2x sign and sign+verify gates at 512 bits apply only when the
   baseline completed enough iterations to trust the measurement, the
   way E14's speedup gate applies only on 4+ cores; the bit-identity
   gate always applies. *)

module Bignum = Secrep_crypto.Bignum
module Rsa = Secrep_crypto.Rsa
module Hmac = Secrep_crypto.Hmac
module Prng = Secrep_crypto.Prng

(* Ops/s over a fixed wall-clock budget, [batch] calls per clock read
   so the timer does not distort sub-microsecond operations. *)
let ops_per_sec ~budget ~batch f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < budget do
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    n := !n + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (float_of_int !n /. !elapsed, !n)

type row = {
  op : string;
  bits : int;
  mont : float;  (** ops/s, Montgomery kernel on *)
  seed : float;  (** ops/s, seed schoolbook path *)
  seed_iters : int;  (** completed baseline iterations *)
  identical : bool;  (** outputs byte-identical across paths *)
}

let msg = "e15: the auditor replays the pledge"

let rsa_rows ~budget =
  List.concat_map
    (fun bits ->
      let key =
        let g = Prng.create ~seed:(Int64.of_int (1500 + bits)) in
        Rsa.generate g ~bits
      in
      let school =
        { key with Rsa.pub = { key.Rsa.pub with Rsa.n_mont = None }; p_mont = None;
          q_mont = None }
      in
      let sig_mont = Rsa.sign key msg in
      let sig_seed = Rsa.sign school msg in
      let sign_identical = String.equal sig_mont sig_seed in
      let verify_agrees =
        Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont
        && Rsa.verify school.Rsa.pub ~msg ~signature:sig_mont
      in
      let measure f = ops_per_sec ~budget ~batch:1 f in
      let s_mont, _ = measure (fun () -> Rsa.sign key msg) in
      let s_seed, s_it = measure (fun () -> Rsa.sign school msg) in
      let v_mont, _ = measure (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont) in
      let v_seed, v_it =
        measure (fun () -> Rsa.verify school.Rsa.pub ~msg ~signature:sig_mont)
      in
      [
        { op = "sign"; bits; mont = s_mont; seed = s_seed; seed_iters = s_it;
          identical = sign_identical };
        { op = "verify"; bits; mont = v_mont; seed = v_seed; seed_iters = v_it;
          identical = verify_agrees };
      ])
    [ 256; 512; 1024 ]

let mac_row ~budget =
  let key = String.init 32 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let cached = Hmac.mac ~hash:Hmac.Sha256 ~key msg in
  let fresh = Hmac.mac_with (Hmac.schedule ~hash:Hmac.Sha256 ~key) msg in
  let m_cached, _ =
    ops_per_sec ~budget ~batch:64 (fun () -> Hmac.mac ~hash:Hmac.Sha256 ~key msg)
  in
  let m_fresh, it =
    ops_per_sec ~budget ~batch:64 (fun () ->
        Hmac.mac_with (Hmac.schedule ~hash:Hmac.Sha256 ~key) msg)
  in
  { op = "hmac"; bits = 256; mont = m_cached; seed = m_fresh; seed_iters = it;
    identical = String.equal cached fresh }

let run ?(quick = false) fmt =
  let budget = if quick then 0.15 else 0.6 in
  let rows = rsa_rows ~budget in
  let mac = mac_row ~budget in
  let all = rows @ [ mac ] in
  let table_rows =
    List.map
      (fun r ->
        [
          r.op;
          string_of_int r.bits;
          Printf.sprintf "%.1f" r.mont;
          Printf.sprintf "%.1f" r.seed;
          Printf.sprintf "%.2fx" (r.mont /. r.seed);
          (if r.identical then "identical" else "DIVERGED");
        ])
      all
  in
  Exp_common.table fmt
    ~title:
      "E15  Montgomery crypto kernel vs seed schoolbook baseline\n\
      \     (ops/s per row; hmac row: schedule cache vs rebuild)"
    ~header:[ "op"; "bits"; "montgomery"; "seed"; "speedup"; "outputs" ]
    table_rows;
  let at_512 op = List.find (fun r -> r.op = op && r.bits = 512) rows in
  let sign = at_512 "sign" and verify = at_512 "verify" in
  (* One protocol round is a sign plus a verify; the combined metric is
     the speedup of that round (sign dominates, as in the system). *)
  let combined_512 =
    ((1.0 /. sign.seed) +. (1.0 /. verify.seed))
    /. ((1.0 /. sign.mont) +. (1.0 /. verify.mont))
  in
  let identical = List.length (List.filter (fun r -> r.identical) all) in
  (* The measurement is trustworthy when the slow baseline completed a
     handful of full iterations inside the budget. *)
  let measurable = sign.seed_iters >= 5 && verify.seed_iters >= 5 in
  let speedup_gate name v =
    Exp_common.gate name ~applies:measurable ~value:(Printf.sprintf "%.2fx" v)
      ~threshold:">= 2.00x" (v >= 2.0)
  in
  [
    Exp_common.gate "outputs bit-identical across kernels"
      ~value:(Printf.sprintf "%d/%d rows" identical (List.length all))
      ~threshold:"all"
      (identical = List.length all);
    speedup_gate "512-bit sign speedup" (sign.mont /. sign.seed);
    speedup_gate "512-bit sign+verify round speedup" combined_512;
  ]
