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

   The >=2x sign/verify gate at 512 bits is enforced by the CI job's
   JSON check, conditioned on [gate_applies] (enough completed
   baseline iterations to trust the measurement) the way E14's
   speedup gate is conditioned on core count; the bit-identity oracle
   is asserted unconditionally, right here. *)

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
  let speedup_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> r.mont /. r.seed
    | None -> 0.0
  in
  let iters_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> r.seed_iters
    | None -> 0
  in
  let ops_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> (r.mont, r.seed)
    | None -> (1.0, 1.0)
  in
  (* One protocol round is a sign plus a verify; the combined metric is
     the speedup of that round (sign dominates, as in the system). *)
  let combined_512 =
    let s_m, s_s = ops_of "sign" 512 and v_m, v_s = ops_of "verify" 512 in
    ((1.0 /. s_s) +. (1.0 /. v_s)) /. ((1.0 /. s_m) +. (1.0 /. v_m))
  in
  let bit_identical = List.for_all (fun r -> r.identical) all in
  (* The measurement is trustworthy when the slow baseline completed a
     handful of full iterations inside the budget. *)
  let gate_applies = iters_of "sign" 512 >= 5 && iters_of "verify" 512 >= 5 in
  Format.fprintf fmt
    "@.all outputs bit-identical across kernels: %b   512-bit speedups: sign %.2fx, \
     verify %.2fx, sign+verify round %.2fx (>=2x gate %s)@."
    bit_identical (speedup_of "sign" 512) (speedup_of "verify" 512) combined_512
    (if gate_applies then "checked in CI" else "skipped: too few baseline iterations");
  if not bit_identical then
    failwith "E15: Montgomery kernel diverged from the schoolbook baseline";
  match Sys.getenv_opt "SECREP_E15_JSON" with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let row_json r =
      Printf.sprintf
        "{\"op\": \"%s\", \"bits\": %d, \"ops_s_mont\": %.2f, \"ops_s_seed\": %.2f,\n\
        \  \"speedup\": %.3f, \"seed_iters\": %d, \"identical\": %b}"
        r.op r.bits r.mont r.seed (r.mont /. r.seed) r.seed_iters r.identical
    in
    Printf.fprintf oc
      "{\"experiment\": \"e15\", \"budget_s\": %.2f,\n\
      \ \"sign_speedup_512\": %.3f, \"verify_speedup_512\": %.3f, \
       \"combined_speedup_512\": %.3f,\n\
      \ \"gate_applies\": %b, \"bit_identical\": %b,\n\
      \ \"rows\": [%s]}\n"
      budget (speedup_of "sign" 512) (speedup_of "verify" 512) combined_512 gate_applies
      bit_identical
      (String.concat ",\n  " (List.map row_json all));
    close_out oc;
    Format.fprintf fmt "wrote JSON summary to %s@." path
