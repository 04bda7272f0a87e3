(* Tests for the two related-work baselines: PBFT-style quorum
   replication and Merkle-tree state signing. *)

open Secrep_baselines
module Sim = Secrep_sim.Sim
module Latency = Secrep_sim.Latency
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Document = Secrep_store.Document
module Value = Secrep_store.Value

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let content =
  List.init 16 (fun i ->
      ( Printf.sprintf "doc:%03d" i,
        Document.of_fields
          [ ("text", Value.String (Printf.sprintf "payload %d" i)); ("n", Value.Int i) ] ))

(* ---------------- Shared costs ---------------- *)

let test_default_costs_match_config () =
  let c = Secrep_core.Config.default and d = Baseline_common.default_costs in
  let float_t = Alcotest.float 0.0 in
  check float_t "per_doc_cost" c.Secrep_core.Config.per_doc_cost d.Baseline_common.per_doc_cost;
  check float_t "signature_cost" c.Secrep_core.Config.signature_cost
    d.Baseline_common.signature_cost;
  check float_t "verify_cost" c.Secrep_core.Config.verify_cost d.Baseline_common.verify_cost

(* ---------------- SMR quorum ---------------- *)

let make_smr ?(f = 1) () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:41L in
  let smr =
    Smr_quorum.create sim ~rng ~f ~latency:(Latency.Uniform { lo = 0.01; hi = 0.05 }) ()
  in
  Smr_quorum.load_content smr content;
  (sim, smr)

let test_smr_shape () =
  let _, smr = make_smr ~f:2 () in
  check int_t "3f+1 replicas" 7 (Smr_quorum.n_replicas smr);
  check int_t "2f+1 quorum" 5 (Smr_quorum.quorum_size smr)

let test_smr_honest_read () =
  let sim, smr = make_smr () in
  let got = ref None in
  Smr_quorum.read smr (Query.point_read "doc:003") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  match !got with
  | Some m ->
    check bool_t "correct" true m.Baseline_common.correct;
    check int_t "2f+1 executions" 3 m.Baseline_common.server_executions;
    check bool_t "latency at least one round trip" true (m.Baseline_common.latency >= 0.02);
    check bool_t "compute charged" true (m.Baseline_common.untrusted_compute > 0.0)
  | None -> Alcotest.fail "no reply"

let test_smr_tolerates_f_byzantine () =
  let sim, smr = make_smr ~f:1 () in
  Smr_quorum.set_byzantine smr ~count:1;
  let correct = ref 0 in
  for _ = 1 to 10 do
    Smr_quorum.read smr (Query.point_read "doc:001") ~on_done:(fun m ->
        if m.Baseline_common.correct then incr correct)
  done;
  Sim.run sim;
  check int_t "f liars cannot corrupt the majority" 10 !correct

let test_smr_majority_fails_beyond_f () =
  (* With 2f+1 byzantine replies in the quorum, no honest majority is
     possible: the read must not report a correct agreement. *)
  let sim, smr = make_smr ~f:1 () in
  Smr_quorum.set_byzantine smr ~count:3;
  let got = ref None in
  Smr_quorum.read smr (Query.point_read "doc:001") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  match !got with
  | Some m -> check bool_t "no correct result" false m.Baseline_common.correct
  | None -> Alcotest.fail "no reply"

let test_smr_write_applies_everywhere () =
  let sim, smr = make_smr () in
  let latency = ref 0.0 in
  Smr_quorum.write smr
    (Oplog.Set_field { key = "doc:001"; field = "n"; value = Value.Int 99 })
    ~on_done:(fun l -> latency := l);
  Sim.run sim;
  check bool_t "three rounds of latency" true (!latency >= 0.03);
  check int_t "version bumped" (16 + 1) (Smr_quorum.version smr);
  (* Subsequent reads see the write. *)
  let got = ref None in
  Smr_quorum.read smr (Query.point_read "doc:001") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  check bool_t "read correct after write" true
    (match !got with Some m -> m.Baseline_common.correct | None -> false)

let test_smr_compute_grows_with_quorum () =
  let run f =
    let sim, smr = make_smr ~f () in
    for _ = 1 to 5 do
      Smr_quorum.read smr (Query.grep "payload") ~on_done:(fun _ -> ())
    done;
    Sim.run sim;
    Smr_quorum.total_compute smr
  in
  check bool_t "f=2 costs more than f=1" true (run 2 > run 1)

(* ---------------- State signing ---------------- *)

let make_ss () =
  let sim = Sim.create () in
  let rng = Prng.create ~seed:42L in
  let signer = Sig_scheme.generate Sig_scheme.Hmac_sim rng in
  let ss =
    State_signing.create sim ~rng
      ~storage_latency:(Latency.Constant 0.01) ~trusted_latency:(Latency.Constant 0.02)
      ~signer ()
  in
  State_signing.load_content ss content;
  (sim, ss)

let test_ss_root_signed () =
  let _, ss = make_ss () in
  check bool_t "root signature valid" true (State_signing.root_signature_valid ss);
  check int_t "version" 16 (State_signing.version ss)

let test_ss_point_read_no_trusted_compute () =
  let sim, ss = make_ss () in
  let got = ref None in
  State_signing.read ss (Query.point_read "doc:005") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  match !got with
  | Some m ->
    check bool_t "correct" true m.Baseline_common.correct;
    check bool_t "zero trusted compute" true (m.Baseline_common.trusted_compute = 0.0);
    check int_t "no server execution" 0 m.Baseline_common.server_executions
  | None -> Alcotest.fail "no reply"

let test_ss_detects_tampering () =
  let sim, ss = make_ss () in
  check bool_t "tamper applies" true (State_signing.tamper_block ss ~key:"doc:005");
  let got = ref None in
  State_signing.read ss (Query.point_read "doc:005") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  (match !got with
  | Some m -> check bool_t "tampered block rejected" false m.Baseline_common.correct
  | None -> Alcotest.fail "no reply");
  check bool_t "tampering unknown key" false (State_signing.tamper_block ss ~key:"nope")

let test_ss_dynamic_query_pays_trusted_compute () =
  let sim, ss = make_ss () in
  let got = ref None in
  State_signing.read ss (Query.grep "payload") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  match !got with
  | Some m ->
    check bool_t "correct" true m.Baseline_common.correct;
    check bool_t "trusted host did the work" true (m.Baseline_common.trusted_compute > 0.0);
    check int_t "one trusted execution" 1 m.Baseline_common.server_executions
  | None -> Alcotest.fail "no reply"

let test_ss_write_resigns () =
  let sim, ss = make_ss () in
  let latency = ref (-1.0) in
  State_signing.write ss
    (Oplog.Set_field { key = "doc:002"; field = "n"; value = Value.Int 123 })
    ~on_done:(fun l -> latency := l);
  Sim.run sim;
  check bool_t "signing latency charged" true (!latency > 0.0);
  check bool_t "root re-signed and valid" true (State_signing.root_signature_valid ss);
  check int_t "version bumped" 17 (State_signing.version ss);
  (* Reads after the write verify against the new tree. *)
  let got = ref None in
  State_signing.read ss (Query.point_read "doc:002") ~on_done:(fun m -> got := Some m);
  Sim.run sim;
  check bool_t "fresh read correct" true
    (match !got with Some m -> m.Baseline_common.correct | None -> false)

let test_ss_proof_length_logarithmic () =
  let _, ss = make_ss () in
  match State_signing.proof_length_for ss ~key:"doc:000" with
  | Some len -> check int_t "log2(16)" 4 len
  | None -> Alcotest.fail "expected proof"

let () =
  Alcotest.run "secrep_baselines"
    [
      ( "costs",
        [ Alcotest.test_case "match Config.default" `Quick test_default_costs_match_config ] );
      ( "smr_quorum",
        [
          Alcotest.test_case "3f+1 / 2f+1 shape" `Quick test_smr_shape;
          Alcotest.test_case "honest read" `Quick test_smr_honest_read;
          Alcotest.test_case "tolerates f byzantine" `Quick test_smr_tolerates_f_byzantine;
          Alcotest.test_case "fails beyond f" `Quick test_smr_majority_fails_beyond_f;
          Alcotest.test_case "write applies everywhere" `Quick test_smr_write_applies_everywhere;
          Alcotest.test_case "compute grows with quorum" `Quick
            test_smr_compute_grows_with_quorum;
        ] );
      ( "state_signing",
        [
          Alcotest.test_case "root signed" `Quick test_ss_root_signed;
          Alcotest.test_case "point read: no trusted compute" `Quick
            test_ss_point_read_no_trusted_compute;
          Alcotest.test_case "detects tampering" `Quick test_ss_detects_tampering;
          Alcotest.test_case "dynamic query pays trusted compute" `Quick
            test_ss_dynamic_query_pays_trusted_compute;
          Alcotest.test_case "write re-signs root" `Quick test_ss_write_resigns;
          Alcotest.test_case "proof length logarithmic" `Quick test_ss_proof_length_logarithmic;
        ] );
    ]
