(* Tests for the paper's core protocol: configuration, identities and
   certificates, keep-alives, pledges, greedy-client detection,
   security levels, and full end-to-end system scenarios — honest
   runs, every attack mode, corrective action, master crashes, write
   rate limiting and the freshness bound. *)

open Secrep_core
module Sim = Secrep_sim.Sim
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Span = Secrep_sim.Span
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Query = Secrep_store.Query
module Query_result = Secrep_store.Query_result
module Oplog = Secrep_store.Oplog
module Document = Secrep_store.Document
module Value = Secrep_store.Value
module Canonical = Secrep_store.Canonical
module Codec = Secrep_store.Codec

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- Config ---------------- *)

let test_config_default_valid () =
  check bool_t "default validates" true (Config.validate Config.default = Ok ())

let test_config_rejects () =
  let bad f = Config.validate (f Config.default) <> Ok () in
  check bool_t "keepalive >= max_latency" true
    (bad (fun c -> { c with Config.keepalive_period = c.Config.max_latency }));
  check bool_t "negative max_latency" true (bad (fun c -> { c with Config.max_latency = -1.0 }));
  check bool_t "p > 1" true (bad (fun c -> { c with Config.double_check_probability = 1.5 }));
  check bool_t "audit fraction" true (bad (fun c -> { c with Config.audit_fraction = -0.1 }));
  check bool_t "greedy factor < 1" true (bad (fun c -> { c with Config.greedy_factor = 0.5 }))

(* (5 retries + 2) x (2 x 5 s timeout + 2 s backoff cap). *)
let test_config_give_up_bound () =
  check (Alcotest.float 0.0) "default give-up bound" 84.0
    (Config.read_give_up_bound Config.default)

(* ---------------- Content key / certificate / directory ---------------- *)

let test_content_identity () =
  let g = Prng.create ~seed:1L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let public = Content_key.public content in
  check bool_t "self-certifying id" true
    (Content_key.verify_id ~content_id:(Content_key.content_id content) public);
  let other = Content_key.create Sig_scheme.Hmac_sim g in
  check bool_t "different key, different id" false
    (Content_key.verify_id ~content_id:(Content_key.content_id content)
       (Content_key.public other))

let test_certificate_verify () =
  let g = Prng.create ~seed:2L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let master_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let cert =
    Certificate.issue content ~master_id:3 ~address:"host:1234"
      (Sig_scheme.public_of master_key)
  in
  check bool_t "valid" true (Certificate.verify ~content_public:(Content_key.public content) cert);
  check bool_t "tampered address" false
    (Certificate.verify ~content_public:(Content_key.public content)
       { cert with Certificate.address = "evil:1234" });
  let other = Content_key.create Sig_scheme.Hmac_sim g in
  check bool_t "wrong content key" false
    (Certificate.verify ~content_public:(Content_key.public other) cert)

let test_directory () =
  let g = Prng.create ~seed:3L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let dir = Directory.create () in
  let cid = Content_key.content_id content in
  check (Alcotest.list Alcotest.reject) "unknown id empty" [] (Directory.lookup dir ~content_id:cid);
  let mk i =
    let key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
    Certificate.issue content ~master_id:i
      ~address:(Printf.sprintf "m%d:1" i)
      (Sig_scheme.public_of key)
  in
  Directory.publish dir (mk 2);
  Directory.publish dir (mk 0);
  Directory.publish dir (mk 1);
  let certs = Directory.lookup dir ~content_id:cid in
  check (Alcotest.list int_t) "sorted by master id" [ 0; 1; 2 ]
    (List.map (fun c -> c.Certificate.master_id) certs);
  Directory.withdraw dir ~content_id:cid ~master_id:1;
  check int_t "withdrawn" 2 (List.length (Directory.lookup dir ~content_id:cid));
  check (Alcotest.list string_t) "content ids" [ cid ] (Directory.content_ids dir)

(* ---------------- Keepalive ---------------- *)

let test_keepalive () =
  let g = Prng.create ~seed:4L in
  let key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let ka =
    Keepalive.make ~master_key:key ~content_id:"cid" ~master_id:0 ~version:7 ~now:100.0
  in
  check bool_t "verifies" true (Keepalive.verify ~master_public:(Sig_scheme.public_of key) ka);
  check bool_t "tampered version" false
    (Keepalive.verify ~master_public:(Sig_scheme.public_of key)
       { ka with Keepalive.version = 8 });
  check bool_t "fresh" true (Keepalive.is_fresh ka ~now:103.0 ~max_latency:5.0);
  check bool_t "stale" false (Keepalive.is_fresh ka ~now:106.0 ~max_latency:5.0);
  check bool_t "age" true (Float.abs (Keepalive.age ka ~now:103.0 -. 3.0) < 1e-9)

(* The §3.1 replay window, as a property over many sampled ages: a
   keep-alive older than max_latency is rejected no matter how valid
   its signature is — freshness and authenticity are independent
   gates, and the boundary itself is inclusive ([age = max_latency] is
   still fresh, the first instant past it is not).  Integer-valued
   timestamps keep the float arithmetic exact at the boundary. *)
let test_keepalive_replay_window () =
  let g = Prng.create ~seed:44L in
  let key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let mp = Sig_scheme.public_of key in
  for _ = 1 to 200 do
    let t0 = float_of_int (Prng.int g 1000) in
    let max_latency = float_of_int (1 + Prng.int g 30) in
    let ka =
      Keepalive.make ~master_key:key ~content_id:"cid" ~master_id:1
        ~version:(Prng.int g 100) ~now:t0
    in
    check bool_t "age = bound is fresh (inclusive)" true
      (Keepalive.is_fresh ka ~now:(t0 +. max_latency) ~max_latency);
    check bool_t "first instant past the bound rejected" false
      (Keepalive.is_fresh ka ~now:(t0 +. max_latency +. 1e-9) ~max_latency);
    let replay_now = t0 +. max_latency +. 1.0 +. float_of_int (Prng.int g 1000) in
    check bool_t "replayed old keep-alive rejected" false
      (Keepalive.is_fresh ka ~now:replay_now ~max_latency);
    (* The signature never expires — only the window rejects it. *)
    check bool_t "replayed keep-alive still validly signed" true
      (Keepalive.verify ~master_public:mp ka)
  done

(* ---------------- Pledge ---------------- *)

let pledge_fixture () =
  let g = Prng.create ~seed:5L in
  let master_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let slave_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let keepalive =
    Keepalive.make ~master_key ~content_id:"cid" ~master_id:0 ~version:3 ~now:10.0
  in
  let query = Query.point_read "k" in
  let result = Query_result.Agg (Value.Int 42) in
  let pledge =
    Pledge.make ~slave_key ~slave_id:9 ~query
      ~result_digest:(Canonical.result_digest result)
      ~keepalive ()
  in
  (master_key, slave_key, keepalive, query, result, pledge)

let test_pledge_ok () =
  let master_key, slave_key, _, _, result, pledge = pledge_fixture () in
  check bool_t "full verification passes" true
    (Pledge.verify
       ~slave_public:(Sig_scheme.public_of slave_key)
       ~master_public:(Sig_scheme.public_of master_key)
       ~result ~now:12.0 ~max_latency:5.0 pledge
    = Ok ());
  check int_t "version" 3 (Pledge.version pledge)

(* The full pledge chain reports a §3.1 window violation as a "stale"
   rejection (retriable in place), never as a signature failure. *)
let test_keepalive_replay_rejected_via_pledge () =
  let master_key, slave_key, _, _, result, pledge = pledge_fixture () in
  let sp = Sig_scheme.public_of slave_key and mp = Sig_scheme.public_of master_key in
  let at now =
    Pledge.verify ~slave_public:sp ~master_public:mp ~result ~now ~max_latency:5.0 pledge
  in
  (* The fixture keep-alive is stamped at t=10, so the window closes at 15. *)
  check bool_t "at the boundary accepted" true (at 15.0 = Ok ());
  (match at 15.001 with
  | Error reason ->
    check bool_t "past the boundary is a stale rejection" true
      (String.length reason >= 5 && String.sub reason 0 5 = "stale")
  | Ok () -> Alcotest.fail "expected stale rejection just past the window");
  match at 1000.0 with
  | Error reason ->
    check bool_t "deep replay is a stale rejection" true
      (String.length reason >= 5 && String.sub reason 0 5 = "stale")
  | Ok () -> Alcotest.fail "expected stale rejection for a deep replay"

let test_pledge_failure_branches () =
  let master_key, slave_key, keepalive, query, result, pledge = pledge_fixture () in
  let sp = Sig_scheme.public_of slave_key and mp = Sig_scheme.public_of master_key in
  let is_err = function Error _ -> true | Ok () -> false in
  check bool_t "wrong result" true
    (is_err
       (Pledge.verify ~slave_public:sp ~master_public:mp
          ~result:(Query_result.Agg (Value.Int 43)) ~now:12.0 ~max_latency:5.0 pledge));
  check bool_t "forged slave signature" true
    (is_err
       (Pledge.verify ~slave_public:sp ~master_public:mp ~result ~now:12.0 ~max_latency:5.0
          { pledge with Pledge.signature = "forged" }));
  check bool_t "keep-alive not from master" true
    (is_err
       (Pledge.verify ~slave_public:sp ~master_public:sp ~result ~now:12.0 ~max_latency:5.0
          pledge));
  (match
     Pledge.verify ~slave_public:sp ~master_public:mp ~result ~now:100.0 ~max_latency:5.0
       pledge
   with
  | Error reason -> check bool_t "stale reason" true (String.sub reason 0 5 = "stale")
  | Ok () -> Alcotest.fail "expected stale rejection");
  (* A client cannot frame the slave: altering the pledged digest
     invalidates the slave's signature. *)
  let framed = { pledge with Pledge.result_digest = String.make 20 'x' } in
  check bool_t "framing detected" false (Pledge.verify_signature ~slave_public:sp framed);
  ignore (keepalive, query)

(* ---------------- Batched pledges ---------------- *)

module Merkle = Secrep_crypto.Merkle

(* A hand-built batch: five payloads, one Merkle root, one signature,
   each pledge carrying its inclusion proof. *)
let batched_fixture () =
  let g = Prng.create ~seed:6L in
  let master_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let slave_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let keepalive =
    Keepalive.make ~master_key ~content_id:"cid" ~master_id:0 ~version:3 ~now:10.0
  in
  let slave_id = 9 in
  let cases =
    List.init 5 (fun i ->
        let query = Query.point_read (Printf.sprintf "k%d" i) in
        let result = Query_result.Agg (Value.Int i) in
        (query, result, Canonical.result_digest result))
  in
  let leaves =
    List.map
      (fun (query, _, result_digest) ->
        Pledge.payload ~slave_id ~query ~result_digest ~keepalive ())
      cases
  in
  let tree = Merkle.build leaves in
  let root = Merkle.root tree in
  let signature = Pledge.sign_batch ~slave_key ~slave_id ~root in
  let pledges =
    List.mapi
      (fun i (query, _, result_digest) ->
        {
          Pledge.slave_id;
          query;
          result_digest;
          keepalive;
          nonce = 0;
          signature;
          mode = Pledge.Batched { root; proof = Merkle.prove tree i };
        })
      cases
  in
  (master_key, slave_key, cases, root, pledges)

let test_pledge_batched_ok () =
  let master_key, slave_key, cases, _, pledges = batched_fixture () in
  let sp = Sig_scheme.public_of slave_key and mp = Sig_scheme.public_of master_key in
  List.iteri
    (fun i (pledge, (_, result, _)) ->
      check bool_t
        (Printf.sprintf "pledge %d signature verifies" i)
        true
        (Pledge.verify_signature ~slave_public:sp pledge);
      check bool_t
        (Printf.sprintf "pledge %d full client check passes" i)
        true
        (Pledge.verify ~slave_public:sp ~master_public:mp ~result ~now:12.0
           ~max_latency:5.0 pledge
        = Ok ()))
    (List.combine pledges cases)

let test_pledge_batched_rejects () =
  let _, slave_key, _, root, pledges = batched_fixture () in
  let sp = Sig_scheme.public_of slave_key in
  let p0 = List.nth pledges 0 and p1 = List.nth pledges 1 in
  check bool_t "forged root signature rejected" false
    (Pledge.verify_signature ~slave_public:sp { p0 with Pledge.signature = "forged" });
  (* A proof for a different leaf does not authenticate this pledge. *)
  check bool_t "swapped proof rejected" false
    (Pledge.verify_signature ~slave_public:sp { p0 with Pledge.mode = p1.Pledge.mode });
  (* Framing: altering the pledged digest breaks the inclusion proof. *)
  check bool_t "framing detected" false
    (Pledge.verify_signature ~slave_public:sp
       { p0 with Pledge.result_digest = String.make 20 'x' });
  (* A correctly-signed root from some other batch proves nothing. *)
  let other_root = Merkle.root (Merkle.build [ "unrelated" ]) in
  let mode =
    match p0.Pledge.mode with
    | Pledge.Batched { proof; _ } -> Pledge.Batched { root = other_root; proof }
    | Pledge.Single -> Alcotest.fail "fixture must be batched"
  in
  check bool_t "wrong root rejected" false
    (Pledge.verify_signature ~slave_public:sp
       {
         p0 with
         Pledge.signature = Pledge.sign_batch ~slave_key ~slave_id:9 ~root:other_root;
         mode;
       });
  ignore root

let test_wire_batched_pledge_roundtrip () =
  let _, slave_key, _, _, pledges = batched_fixture () in
  List.iteri
    (fun i pledge ->
      match Wire.decode_pledge (Wire.encode_pledge pledge) with
      | Ok pledge' ->
        check bool_t (Printf.sprintf "pledge %d roundtrip equal" i) true (pledge = pledge');
        check bool_t
          (Printf.sprintf "pledge %d still verifies" i)
          true
          (Pledge.verify_signature ~slave_public:(Sig_scheme.public_of slave_key) pledge')
      | Error msg -> Alcotest.fail msg)
    pledges;
  (* The batched framing carries root + proof on top of the single
     pledge layout. *)
  let single = { (List.nth pledges 0) with Pledge.mode = Pledge.Single } in
  check bool_t "batched framing is larger than single" true
    (Wire.pledge_size (List.nth pledges 2) > Wire.pledge_size single)

(* ---------------- Wire ---------------- *)

let test_wire_keepalive_roundtrip () =
  let g = Prng.create ~seed:15L in
  let key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let ka = Keepalive.make ~master_key:key ~content_id:"cid" ~master_id:3 ~version:17 ~now:42.5 in
  (match Wire.decode_keepalive (Wire.encode_keepalive ka) with
  | Ok ka' ->
    check bool_t "roundtrip equal" true (ka = ka');
    check bool_t "still verifies" true
      (Keepalive.verify ~master_public:(Sig_scheme.public_of key) ka')
  | Error msg -> Alcotest.fail msg);
  check bool_t "size positive" true (Wire.keepalive_size ka > 0)

let test_wire_pledge_roundtrip () =
  let _, slave_key, _, _, _, pledge = pledge_fixture () in
  (match Wire.decode_pledge (Wire.encode_pledge pledge) with
  | Ok pledge' ->
    check bool_t "roundtrip equal" true (pledge = pledge');
    check bool_t "signature still verifies" true
      (Pledge.verify_signature ~slave_public:(Sig_scheme.public_of slave_key) pledge')
  | Error msg -> Alcotest.fail msg);
  check bool_t "pledge size sane" true (Wire.pledge_size pledge > 40)

let test_wire_certificate_roundtrip () =
  let g = Prng.create ~seed:16L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let master_key = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let cert =
    Certificate.issue content ~master_id:1 ~address:"h:1" (Sig_scheme.public_of master_key)
  in
  match Wire.decode_certificate (Wire.encode_certificate cert) with
  | Ok cert' ->
    check bool_t "still verifies after the wire" true
      (Certificate.verify ~content_public:(Content_key.public content) cert')
  | Error msg -> Alcotest.fail msg

let test_wire_rsa_public_roundtrip () =
  let g = Prng.create ~seed:17L in
  let kp = Sig_scheme.generate (Sig_scheme.Rsa { bits = 320 }) g in
  let public = Sig_scheme.public_of kp in
  let s = Sig_scheme.sign kp "msg" in
  match Sig_scheme.decode_public (Sig_scheme.encode_public public) with
  | Ok public' ->
    check bool_t "decoded key verifies" true
      (Sig_scheme.verify public' ~msg:"msg" ~signature:s)
  | Error msg -> Alcotest.fail msg

let test_wire_garbage_rejected () =
  let garbage = [ ""; "\x00"; "zzzz"; String.make 100 '\xff' ] in
  List.iter
    (fun s ->
      check bool_t "keepalive garbage" true
        (match Wire.decode_keepalive s with Error _ -> true | Ok _ -> false);
      check bool_t "pledge garbage" true
        (match Wire.decode_pledge s with Error _ -> true | Ok _ -> false);
      check bool_t "certificate garbage" true
        (match Wire.decode_certificate s with Error _ -> true | Ok _ -> false);
      check bool_t "public-key garbage" true
        (match Sig_scheme.decode_public s with Error _ -> true | Ok _ -> false))
    garbage

(* A single pledge signs its own frame up to the signature, so the
   signed bytes and the wire bytes share one field order. *)
let test_wire_pledge_payload_is_frame_prefix () =
  let _, slave_key, keepalive, query, _, pledge = pledge_fixture () in
  let nonced =
    Pledge.make ~nonce:7 ~slave_key ~slave_id:9 ~query
      ~result_digest:pledge.Pledge.result_digest ~keepalive ()
  in
  List.iter
    (fun (label, p) ->
      let signature = Codec.Writer.create () in
      Codec.Writer.bytes signature p.Pledge.signature;
      check string_t (label ^ ": frame = payload ^ signature")
        (Pledge.signed_payload p ^ Codec.Writer.contents signature)
        (Wire.encode_pledge p))
    [ ("nonce 0", pledge); ("nonce 7", nonced) ]

(* Every kind of signed bytes opens with its own domain byte, so no
   signature can be replayed as another kind's. *)
let test_wire_payload_domains_differ () =
  let _, _, keepalive, _, _, pledge = pledge_fixture () in
  let g = Prng.create ~seed:92L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let cert =
    Certificate.issue content ~master_id:1 ~address:"h:1"
      (Sig_scheme.public_of (Sig_scheme.generate Sig_scheme.Hmac_sim g))
  in
  let payloads =
    [
      Pledge.signed_payload pledge;
      Pledge.signed_payload { pledge with Pledge.nonce = 7 };
      Pledge.batch_payload ~slave_id:9 ~root:(String.make 32 'r');
      Keepalive.signed_payload keepalive;
      Certificate.signed_payload cert;
    ]
  in
  check int_t "distinct first bytes" (List.length payloads)
    (List.length (List.sort_uniq Char.compare (List.map (fun s -> s.[0]) payloads)))

(* ---------------- Wire: adversarial frames ---------------- *)

(* One valid frame of every message type that crosses a trust
   boundary, each paired with a "decodes to a fully valid value"
   predicate.  The predicates are the complete verification chain a
   receiver runs (signatures, and for batched pledges the Merkle
   inclusion proof), so any byte an attacker can profitably flip is
   covered by one of them. *)
let wire_frame_fixtures () =
  let master_key, slave_key, _, _, _, pledge = pledge_fixture () in
  let sp = Sig_scheme.public_of slave_key in
  let mp = Sig_scheme.public_of master_key in
  let _, bslave_key, bkeepalive, _, bpledges = batched_fixture () in
  let bsp = Sig_scheme.public_of bslave_key in
  let nonced =
    Pledge.make ~nonce:7 ~slave_key ~slave_id:9 ~query:(Query.point_read "k")
      ~result_digest:pledge.Pledge.result_digest ~keepalive:pledge.Pledge.keepalive ()
  in
  let g = Prng.create ~seed:91L in
  let content = Content_key.create Sig_scheme.Hmac_sim g in
  let cert_master = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let cert =
    Certificate.issue content ~master_id:1 ~address:"h:1"
      (Sig_scheme.public_of cert_master)
  in
  ignore bkeepalive;
  [
    ( "keepalive",
      Wire.encode_keepalive pledge.Pledge.keepalive,
      fun s ->
        match Wire.decode_keepalive s with
        | Error _ -> `Rejected
        | Ok ka -> if Keepalive.verify ~master_public:mp ka then `Valid else `Forged );
    ( "pledge",
      Wire.encode_pledge pledge,
      fun s ->
        match Wire.decode_pledge s with
        | Error _ -> `Rejected
        | Ok p -> if Pledge.verify_signature ~slave_public:sp p then `Valid else `Forged );
    ( "nonced pledge",
      Wire.encode_pledge nonced,
      fun s ->
        match Wire.decode_pledge s with
        | Error _ -> `Rejected
        | Ok p -> if Pledge.verify_signature ~slave_public:sp p then `Valid else `Forged );
    ( "batched pledge",
      Wire.encode_pledge (List.nth bpledges 2),
      fun s ->
        match Wire.decode_pledge s with
        | Error _ -> `Rejected
        | Ok p -> if Pledge.verify_signature ~slave_public:bsp p then `Valid else `Forged
    );
    ( "certificate",
      Wire.encode_certificate cert,
      fun s ->
        match Wire.decode_certificate s with
        | Error _ -> `Rejected
        | Ok c ->
          if Certificate.verify ~content_public:(Content_key.public content) c then `Valid
          else `Forged );
  ]

let classify name verdict s =
  match verdict s with
  | exception e ->
    Alcotest.fail (Printf.sprintf "%s decoder raised %s" name (Printexc.to_string e))
  | v -> v

let test_wire_truncation_rejected () =
  List.iter
    (fun (name, frame, verdict) ->
      check bool_t (name ^ " intact frame valid") true (classify name verdict frame = `Valid);
      for cut = 0 to String.length frame - 1 do
        check bool_t
          (Printf.sprintf "%s truncated at %d rejected" name cut)
          true
          (classify name verdict (String.sub frame 0 cut) = `Rejected)
      done)
    (wire_frame_fixtures ())

let test_wire_oversize_rejected () =
  List.iter
    (fun (name, frame, verdict) ->
      List.iter
        (fun junk ->
          check bool_t (name ^ " trailing junk rejected") true
            (classify name verdict (frame ^ junk) = `Rejected))
        [ "\x00"; "x"; String.make 64 '\xff'; frame ])
    (wire_frame_fixtures ())

let test_wire_random_bytes_never_crash () =
  let g = Prng.create ~seed:92L in
  let fixtures = wire_frame_fixtures () in
  for _ = 1 to 100 do
    let len = Prng.int g 300 in
    let s = String.init len (fun _ -> Char.chr (Prng.int g 256)) in
    List.iter
      (fun (name, _, verdict) ->
        (* Random bytes may parse by fluke, but can never carry a valid
           signature. *)
        check bool_t (name ^ " random frame not valid") true
          (classify name verdict s <> `Valid))
      fixtures
  done

(* The fuzz generator the satellite asks for: take a valid frame and
   mutate it — flip 1-4 bytes, truncate, or extend.  The decoder must
   never raise, and no mutant may survive the full verification chain:
   every byte of every frame is either structural (mutation breaks the
   parse) or covered by a signature / inclusion proof (mutation breaks
   verification). *)
let test_wire_mutation_fuzz () =
  let g = Prng.create ~seed:93L in
  let fixtures = Array.of_list (wire_frame_fixtures ()) in
  for _ = 1 to 200 do
    let name, frame, verdict = fixtures.(Prng.int g (Array.length fixtures)) in
    let b = Bytes.of_string frame in
    let mutant =
      match Prng.int g 3 with
      | 0 ->
        let flips = 1 + Prng.int g 4 in
        for _ = 1 to flips do
          let i = Prng.int g (Bytes.length b) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int g 255)))
        done;
        Bytes.to_string b
      | 1 -> String.sub frame 0 (Prng.int g (String.length frame))
      | _ -> frame ^ String.init (1 + Prng.int g 16) (fun _ -> Char.chr (Prng.int g 256))
    in
    if not (String.equal mutant frame) then
      check bool_t (name ^ " mutant never verifies") true
        (classify name verdict mutant <> `Valid)
  done

(* ---------------- Greedy detection ---------------- *)

let test_greedy_flags_heavy_client () =
  let g = Prng.create ~seed:6L in
  let greedy = Greedy.create ~window:60.0 ~factor:4.0 ~min_samples:10 ~rng:g in
  (* 5 normal clients, 1 greedy one. *)
  for i = 0 to 99 do
    let now = float_of_int i in
    Greedy.record greedy ~client:1000 ~now;
    if i mod 10 = 0 then
      for c = 1 to 5 do
        Greedy.record greedy ~client:c ~now
      done
  done;
  check bool_t "greedy flagged" true (Greedy.is_suspected greedy ~client:1000 ~now:99.0);
  check bool_t "normal not flagged" false (Greedy.is_suspected greedy ~client:1 ~now:99.0);
  check (Alcotest.list int_t) "suspect list" [ 1000 ] (Greedy.suspected_clients greedy ~now:99.0)

let test_greedy_throttles () =
  let g = Prng.create ~seed:7L in
  let greedy = Greedy.create ~window:1000.0 ~factor:4.0 ~min_samples:5 ~rng:g in
  (* background clients *)
  for i = 0 to 9 do
    Greedy.record greedy ~client:(i mod 3) ~now:(float_of_int i)
  done;
  (* hammering client: count how many get served *)
  let served = ref 0 in
  for i = 0 to 199 do
    if Greedy.should_serve greedy ~client:99 ~now:(10.0 +. float_of_int i) then incr served
  done;
  check bool_t "mostly throttled" true (!served < 120);
  check bool_t "not fully starved" true (!served > 10)

let test_greedy_window_expiry () =
  let g = Prng.create ~seed:8L in
  let greedy = Greedy.create ~window:10.0 ~factor:2.0 ~min_samples:3 ~rng:g in
  for i = 0 to 19 do
    Greedy.record greedy ~client:7 ~now:(float_of_int i)
  done;
  Greedy.record greedy ~client:8 ~now:19.0;
  check bool_t "active inside window" true (Greedy.is_suspected greedy ~client:7 ~now:19.0);
  check bool_t "forgotten after window" false (Greedy.is_suspected greedy ~client:7 ~now:100.0)

(* ---------------- Security levels ---------------- *)

let test_security_levels () =
  let p t = Security_level.double_check_probability ~base:0.05 t in
  check bool_t "normal is base" true (Float.abs (p Security_level.Normal -. 0.05) < 1e-12);
  check bool_t "sensitive is 1" true (p Security_level.Sensitive = 1.0);
  check bool_t "level 0 is base" true (Float.abs (p (Security_level.Leveled 0) -. 0.05) < 1e-9);
  check bool_t "top level is 1" true
    (Float.abs (p (Security_level.Leveled (Security_level.levels - 1)) -. 1.0) < 1e-9);
  check bool_t "monotonic" true
    (p (Security_level.Leveled 0) < p (Security_level.Leveled 1)
    && p (Security_level.Leveled 1) < p (Security_level.Leveled 2));
  check bool_t "sensitive on master" true
    (Security_level.executes_on_master ~base:0.05 Security_level.Sensitive);
  check bool_t "normal not on master" false
    (Security_level.executes_on_master ~base:0.05 Security_level.Normal);
  check bool_t "out of range" true
    (try ignore (p (Security_level.Leveled 99)); false with Invalid_argument _ -> true)

(* ---------------- Fault ---------------- *)

let test_fault_behavior () =
  let g = Prng.create ~seed:9L in
  let decide behavior ~now = Fault.decide behavior ~now ~client:0 (Fault.initial_state ()) g in
  check bool_t "honest never lies" true (decide Fault.Honest ~now:5.0 = Fault.Pass);
  let always =
    Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 10.0 }
  in
  check bool_t "before from_time" true (decide always ~now:5.0 = Fault.Pass);
  check bool_t "after from_time" true
    (decide always ~now:15.0 = Fault.Act Fault.Corrupt_result);
  let never = Fault.Malicious { probability = 0.0; mode = Fault.Omit_result; from_time = 0.0 } in
  check bool_t "p=0 never" true (decide never ~now:5.0 = Fault.Pass)

(* ---------------- Corrective log ---------------- *)

let test_corrective_log () =
  let log = Corrective.create () in
  Corrective.record log
    { Corrective.time = 5.0; slave_id = 2; discovery = Corrective.Immediate; clients_reassigned = 3 };
  Corrective.record log
    { Corrective.time = 9.0; slave_id = 4; discovery = Corrective.Delayed; clients_reassigned = 1 };
  check (Alcotest.list int_t) "excluded" [ 2; 4 ] (Corrective.excluded log);
  check bool_t "is_excluded" true (Corrective.is_excluded log ~slave_id:2);
  check bool_t "not excluded" false (Corrective.is_excluded log ~slave_id:3);
  check int_t "immediate count" 1 (Corrective.count log ~discovery:Corrective.Immediate);
  (match Corrective.first_detection log ~slave_id:4 with
  | Some e -> check bool_t "detection time" true (e.Corrective.time = 9.0)
  | None -> Alcotest.fail "expected event");
  check int_t "chronological" 2 (List.length (Corrective.events log))

(* ================= End-to-end system scenarios ================= *)

let fast_config =
  {
    Config.default with
    Config.max_latency = 2.0;
    keepalive_period = 0.5;
    double_check_probability = 0.05;
    audit_lag_slack = 0.5;
  }

let catalog =
  List.init 20 (fun i ->
      ( Printf.sprintf "item:%03d" i,
        Document.of_fields
          [
            ("name", Value.String (Printf.sprintf "item number %d" i));
            ("price", Value.Float (float_of_int (i * 10)));
            ("stock", Value.Int i);
          ] ))

let make_system ?(config = fast_config) ?(n_masters = 2) ?(slaves_per_master = 2)
    ?(n_clients = 4) ?(seed = 11L) () =
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config ~net:System.lan_net ~seed ()
  in
  System.load_content system catalog;
  system

(* Issue [n] reads from rotating clients, return collected reports. *)
let issue_reads ?level ?mode system ~n ~spacing =
  let reports = ref [] in
  let sim = System.sim system in
  for i = 0 to n - 1 do
    ignore
      (Sim.schedule sim ~delay:(spacing *. float_of_int i) (fun () ->
           System.read system
             ~client:(i mod System.n_clients system)
             ?level ?mode
             (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  reports

let test_e2e_honest_run () =
  let system = make_system () in
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 60.0;
  check int_t "all reads completed" 40 (List.length !reports);
  List.iter
    (fun r ->
      match r.Client.outcome with
      | `Accepted _ -> ()
      | `Served_by_master _ | `Gave_up -> Alcotest.fail "expected slave-served accept")
    !reports;
  check int_t "no wrong accepts" 0 (Stats.get (System.stats system) "system.accepted_wrong");
  check bool_t "correct accepts recorded" true
    (Stats.get (System.stats system) "system.accepted_correct" = 40);
  check int_t "nothing caught" 0 (Auditor.caught (System.auditor system));
  check int_t "no exclusions" 0 (List.length (Corrective.excluded (System.corrective system)))

let test_e2e_event_taxonomy () =
  (* A run with writes, double-checking and a liar exercises most of
     the typed-event taxonomy; the trace must carry the structured
     events (not just strings) from every component class. *)
  let config = { fast_config with Config.double_check_probability = 0.3 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  System.write system ~client:1
    (Oplog.Set_field { key = "item:001"; field = "price"; value = Value.Float 123.0 })
    ~on_done:(fun _ -> ());
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 120.0;
  check int_t "reads completed" 40 (List.length !reports);
  let tr = System.trace system in
  let kinds = Trace.kinds tr in
  let expected =
    [
      "read_issued";
      "read_answered";
      "pledge_signed";
      "pledge_verified";
      "double_check";
      "write_committed";
      "keepalive_sent";
      "state_update_applied";
      "audit_advance";
      "order_delivered";
    ]
  in
  List.iter
    (fun k -> check bool_t (Printf.sprintf "kind %s present" k) true (List.mem k kinds))
    expected;
  check bool_t "at least 8 distinct typed kinds" true
    (List.length (List.filter (fun k -> k <> "log") kinds) >= 8);
  (* Events from every component class. *)
  let typed r = match r.Trace.event with Event.Log _ -> false | _ -> true in
  let from prefix =
    Trace.count_matching tr ~f:(fun r ->
        String.length r.Trace.source >= String.length prefix
        && String.sub r.Trace.source 0 (String.length prefix) = prefix
        && typed r)
    > 0
  in
  check bool_t "master events" true (from "master-");
  check bool_t "slave events" true (from "slave-");
  check bool_t "client events" true (from "client-");
  check bool_t "auditor events" true
    (Trace.count_matching tr ~f:(fun r -> r.Trace.source = "auditor" && typed r) > 0);
  (* Spans from the cost model feed the phase histograms. *)
  let spans = System.spans system in
  check bool_t "spans collected" true (Span.total_finished spans > 0);
  let stats = System.stats system in
  List.iter
    (fun phase ->
      check bool_t (Printf.sprintf "span.%s histogram fed" phase) true
        (Secrep_sim.Histogram.count (Stats.histogram stats (Span.histogram_name phase)) > 0))
    [ "sign"; "verify"; "query_eval"; "network"; "audit" ]

let test_e2e_audit_catches_liar () =
  (* Double-checking off: only the background audit can catch the liar. *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads system ~n:30 ~spacing:0.2 in
  System.run_for system 120.0;
  check int_t "reads completed" 30 (List.length !reports);
  check bool_t "auditor caught the slave" true (Auditor.caught (System.auditor system) >= 1);
  check bool_t "slave excluded" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  (match Corrective.first_detection (System.corrective system) ~slave_id:victim with
  | Some e -> check bool_t "delayed discovery" true (e.Corrective.discovery = Corrective.Delayed)
  | None -> Alcotest.fail "expected corrective event");
  (* The wrong answers that got through before detection are labelled. *)
  check bool_t "some wrong accepts recorded" true
    (Stats.get (System.stats system) "system.accepted_wrong" >= 1);
  check bool_t "slave stopped serving" true (Slave.is_excluded (System.slave system victim))

let test_e2e_double_check_catches_liar () =
  (* p = 1: the first lying read is caught immediately. *)
  let config = { fast_config with Config.double_check_probability = 1.0 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let report = ref None in
  System.read system ~client:0 (Query.point_read "item:001") ~on_done:(fun r ->
      report := Some r);
  System.run_for system 60.0;
  (match !report with
  | Some r -> begin
    check bool_t "read eventually accepted (from a new slave)" true
      (match r.Client.outcome with `Accepted _ -> true | _ -> false);
    check bool_t "the liar was caught on this read" true (r.Client.caught_slave = Some victim);
    check bool_t "retried" true (r.Client.retries >= 1)
  end
  | None -> Alcotest.fail "read never completed");
  check bool_t "immediate discovery recorded" true
    (match Corrective.first_detection (System.corrective system) ~slave_id:victim with
    | Some e -> e.Corrective.discovery = Corrective.Immediate
    | None -> false);
  check int_t "no wrong accepts with p=1" 0
    (Stats.get (System.stats system) "system.accepted_wrong")

let test_e2e_bad_signature_rejected_client_side () =
  let system = make_system () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Bad_signature; from_time = 0.0 });
  let report = ref None in
  System.read system ~client:0 (Query.point_read "item:002") ~on_done:(fun r ->
      report := Some r);
  System.run_for system 60.0;
  (match !report with
  | Some r ->
    check bool_t "accepted after moving away" true
      (match r.Client.outcome with `Accepted _ -> true | _ -> false)
  | None -> Alcotest.fail "read never completed");
  check bool_t "client-side rejections counted" true
    (Stats.get (System.stats system) "client.pledge_rejected" >= 1);
  check int_t "never accepted a wrong answer" 0
    (Stats.get (System.stats system) "system.accepted_wrong")

let test_e2e_omit_attack_times_out () =
  let system = make_system () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Omit_result; from_time = 0.0 });
  let report = ref None in
  System.read system ~client:0 (Query.point_read "item:003") ~on_done:(fun r ->
      report := Some r);
  System.run_for system 120.0;
  (match !report with
  | Some r ->
    check bool_t "eventually served elsewhere" true
      (match r.Client.outcome with `Accepted _ -> true | _ -> false)
  | None -> Alcotest.fail "read never completed");
  check bool_t "timeouts counted" true
    (Stats.get (System.stats system) "client.read_timeouts" >= 1)

let test_e2e_stale_state_attack_caught () =
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Stale_state; from_time = 0.0 });
  (* A write changes the truth; the stale slave keeps answering from the
     old state. *)
  System.write system ~client:1
    (Oplog.Set_field { key = "item:001"; field = "price"; value = Value.Float 999.0 })
    ~on_done:(fun _ -> ());
  System.run_for system 10.0;
  (* Client 0 (connected to the frozen slave) reads the changed key. *)
  let reports = ref [] in
  for i = 0 to 9 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.3 *. float_of_int i) (fun () ->
           System.read system ~client:0 (Query.point_read "item:001") ~on_done:(fun r ->
               reports := r :: !reports)))
  done;
  System.run_for system 120.0;
  check int_t "reads completed" 10 (List.length !reports);
  check bool_t "audit catches the frozen replica" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim)

let test_e2e_sensitive_reads_bypass_slaves () =
  let system = make_system () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = ref [] in
  for i = 0 to 4 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.5 *. float_of_int i) (fun () ->
           System.read system ~client:0 ~level:Security_level.Sensitive
             (Query.point_read (Printf.sprintf "item:%03d" i))
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  System.run_for system 30.0;
  check int_t "all completed" 5 (List.length !reports);
  List.iter
    (fun r ->
      check bool_t "served by master" true
        (match r.Client.outcome with `Served_by_master _ -> true | _ -> false))
    !reports;
  check int_t "sensitive reads counted" 5
    (Stats.get (System.stats system) "master.sensitive_reads");
  check int_t "no wrong accepts" 0 (Stats.get (System.stats system) "system.accepted_wrong")

let test_e2e_quorum_read_detects_mismatch () =
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config ~slaves_per_master:3 () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let report = ref None in
  System.read system ~client:0 ~mode:(Client.Quorum 2) (Query.point_read "item:004")
    ~on_done:(fun r -> report := Some r);
  System.run_for system 60.0;
  (match !report with
  | Some r ->
    check bool_t "accepted" true (match r.Client.outcome with `Accepted _ -> true | _ -> false)
  | None -> Alcotest.fail "read never completed");
  check bool_t "mismatch observed" true
    (Stats.get (System.stats system) "client.quorum_mismatches" >= 1);
  check bool_t "liar excluded via automatic double-check" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  check int_t "no wrong accepts" 0 (Stats.get (System.stats system) "system.accepted_wrong")

let test_e2e_quorum_read_honest () =
  let system = make_system ~slaves_per_master:3 () in
  let report = ref None in
  System.read system ~client:0 ~mode:(Client.Quorum 3) (Query.point_read "item:005")
    ~on_done:(fun r -> report := Some r);
  System.run_for system 30.0;
  (match !report with
  | Some r ->
    check bool_t "accepted" true (match r.Client.outcome with `Accepted _ -> true | _ -> false)
  | None -> Alcotest.fail "read never completed");
  check int_t "no mismatch" 0 (Stats.get (System.stats system) "client.quorum_mismatches")

(* A single-slave read is a quorum of one.  E8's topology under 20%
   loss exercises timeouts, retries, breakers and reconnects, and the
   two modes must still produce the same event stream. *)
let e8_lossy_stream ~seed mode =
  let config =
    {
      Config.default with
      Config.double_check_probability = 0.05;
      audit_enabled = false;
      read_retry_limit = 4;
    }
  in
  let system =
    System.create ~n_masters:1 ~slaves_per_master:4 ~n_clients:4 ~config
      ~net:{ System.lan_net with System.loss = 0.2 }
      ~seed ()
  in
  System.load_content system
    (Secrep_workload.Catalog.product_catalog (Prng.create ~seed:(Int64.add seed 11L)) ~n:60);
  let events = ref [] in
  Trace.on_emit (System.trace system) (fun r ->
      events :=
        Printf.sprintf "%.9f %s %s" r.Trace.time r.Trace.source (Event.to_string r.Trace.event)
        :: !events);
  for i = 0 to 199 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.25 *. float_of_int i) (fun () ->
           System.read system ~client:(i mod 4) ~mode
             (Query.point_read (Printf.sprintf "product:%05d" (i mod 60)))
             ~on_done:ignore))
  done;
  System.run_for system 170.0;
  List.rev !events

let test_quorum_of_one_is_single () =
  List.iter
    (fun seed ->
      check (Alcotest.list string_t)
        (Printf.sprintf "seed %Ld: same event stream" seed)
        (e8_lossy_stream ~seed Client.Single)
        (e8_lossy_stream ~seed (Client.Quorum 1)))
    [ 1L; 2L ]

(* A double-check reply lost on the client-master link is the master's
   silence, not the slave's: the timeout counts, but charges no slave's
   circuit breaker. *)
let test_lost_double_check_charges_no_slave () =
  let config = { Config.default with Config.double_check_probability = 1.0 } in
  let system = make_system ~config ~n_clients:1 ~seed:3L () in
  System.set_master_connectivity system ~master_id:(System.master_of_client system 0)
    ~up:false;
  let breaker_events = ref 0 in
  Trace.on_emit (System.trace system) (fun r ->
      if Event.kind r.Trace.event = "breaker_opened" then incr breaker_events);
  let reports = ref [] in
  for i = 0 to 3 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(float_of_int i) (fun () ->
           System.read system ~client:0
             (Query.point_read (Printf.sprintf "item:%03d" i))
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  System.run_for system 60.0;
  let stats = System.stats system in
  check int_t "no breaker_opened event" 0 !breaker_events;
  check int_t "client.breaker_opened" 0 (Stats.get stats "client.breaker_opened");
  check int_t "client.read_timeouts" 4 (Stats.get stats "client.read_timeouts");
  check int_t "all four accepted" 4
    (List.length
       (List.filter
          (fun r -> match r.Client.outcome with `Accepted _ -> true | _ -> false)
          !reports))

let test_e2e_write_rate_limited () =
  let system = make_system () in
  (* Fire 5 writes in quick succession; the §3.1 rule forces commits at
     least max_latency apart. *)
  let commit_versions = ref [] in
  for i = 0 to 4 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.01 *. float_of_int i) (fun () ->
           System.write system ~client:0
             (Oplog.Set_field
                { key = "item:000"; field = "stock"; value = Value.Int (100 + i) })
             ~on_done:(fun ack ->
               match ack with
               | Master.Committed { version } ->
                 commit_versions := (Sim.now (System.sim system), version) :: !commit_versions
               | Master.Denied _ -> ())))
  done;
  System.run_for system 60.0;
  check int_t "all committed" 5 (List.length !commit_versions);
  let times = List.sort Float.compare (List.map fst !commit_versions) in
  let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
  List.iter
    (fun gap ->
      check bool_t
        (Printf.sprintf "commit gap %.3f >= max_latency" gap)
        true
        (gap >= fast_config.Config.max_latency -. 0.2))
    (gaps times)
  (* commit acks include network latency back to the client, so allow
     a little slack below the exact bound *)

let test_e2e_write_acl () =
  let system = make_system () in
  Master.set_acl (System.master system (System.master_of_client system 0))
    ~allowed_writers:(Some [ 1 ]);
  let ack = ref None in
  System.write system ~client:0
    (Oplog.Set_field { key = "item:000"; field = "stock"; value = Value.Int 1 })
    ~on_done:(fun a -> ack := Some a);
  System.run_for system 10.0;
  (match !ack with
  | Some (Master.Denied _) -> ()
  | Some (Master.Committed _) -> Alcotest.fail "ACL should have denied"
  | None -> Alcotest.fail "no ack")

let test_e2e_master_crash_failover () =
  let system = make_system ~n_masters:2 () in
  let dead = System.master_of_client system 0 in
  System.crash_master system dead;
  System.run_for system 30.0;
  check bool_t "client re-homed" true (System.master_of_client system 0 <> dead);
  (* Reads and writes still work through the surviving master. *)
  let report = ref None and ack = ref None in
  System.read system ~client:0 (Query.point_read "item:006") ~on_done:(fun r ->
      report := Some r);
  System.write system ~client:0
    (Oplog.Set_field { key = "item:006"; field = "stock"; value = Value.Int 77 })
    ~on_done:(fun a -> ack := Some a);
  System.run_for system 120.0;
  check bool_t "read survives failover" true
    (match !report with Some { Client.outcome = `Accepted _; _ } -> true | _ -> false);
  check bool_t "write survives failover" true
    (match !ack with Some (Master.Committed _) -> true | _ -> false)

let test_e2e_freshness_bound_holds () =
  (* E4's invariant, in miniature: every accepted read reflects a
     version whose keep-alive was at most max_latency old; with the
     oracle we check accepted results are never older than the commit
     preceding the read by more than max_latency + epsilon. *)
  let system = make_system () in
  let ok = ref true in
  let n = ref 0 in
  let sim = System.sim system in
  (* Interleave writes and reads. *)
  for i = 0 to 9 do
    ignore
      (Sim.schedule sim ~delay:(4.0 *. float_of_int i) (fun () ->
           System.write system ~client:1
             (Oplog.Set_field
                { key = "item:007"; field = "stock"; value = Value.Int (1000 + i) })
             ~on_done:(fun _ -> ())))
  done;
  for i = 0 to 39 do
    ignore
      (Sim.schedule sim ~delay:(1.0 *. float_of_int i) (fun () ->
           System.read system ~client:(i mod 4) (Query.point_read "item:007")
             ~on_done:(fun r ->
               incr n;
               match r.Client.outcome with
               | `Accepted result -> begin
                 let digest = Canonical.result_digest result in
                 match
                   System.check_result system ~version:r.Client.version r.Client.query ~digest
                 with
                 | Some true -> ()
                 | Some false -> ok := false
                 | None -> ()
               end
               | `Served_by_master _ | `Gave_up -> ())))
  done;
  System.run_for system 120.0;
  check int_t "reads done" 40 !n;
  check bool_t "every accepted read matches the oracle at its version" true !ok;
  check int_t "no wrong accepts" 0 (Stats.get (System.stats system) "system.accepted_wrong")

let test_e2e_audit_cache_effective () =
  (* Repeated identical queries within one version should mostly hit
     the auditor's re-execution memo. *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let reports = ref [] in
  for i = 0 to 19 do
    ignore
      (Sim.schedule (System.sim system) ~delay:(0.2 *. float_of_int i) (fun () ->
           System.read system ~client:(i mod 4) (Query.point_read "item:010")
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  System.run_for system 60.0;
  check int_t "reads done" 20 (List.length !reports);
  let cache = Auditor.cache (System.auditor system) in
  check bool_t "cache hits dominate" true
    (Secrep_store.Audit_index.hits cache >= 15);
  check int_t "auditor audited all" 20 (Auditor.audited (System.auditor system))

let test_e2e_audit_fraction_samples () =
  let config =
    { fast_config with Config.double_check_probability = 0.0; audit_fraction = 0.3 }
  in
  let system = make_system ~config ~seed:21L () in
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 60.0;
  check int_t "reads done" 40 (List.length !reports);
  let audited = Auditor.audited (System.auditor system) in
  let sampled_out = Stats.get (System.stats system) "auditor.sampled_out" in
  check int_t "every pledge either audited or sampled out" 40 (audited + sampled_out);
  check bool_t "sampling happened" true (sampled_out > 10 && audited > 2)

let test_e2e_two_simultaneous_attackers () =
  let config = { fast_config with Config.double_check_probability = 0.1 } in
  let system = make_system ~config ~slaves_per_master:3 ~n_clients:6 () in
  let v1 = System.slave_of_client system 0 in
  let v2 =
    (* a second victim distinct from the first *)
    let rec pick c = if System.slave_of_client system c <> v1 then System.slave_of_client system c else pick (c + 1) in
    pick 1
  in
  List.iter
    (fun v ->
      System.set_slave_behavior system ~slave:v
        (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 }))
    [ v1; v2 ];
  let reports = issue_reads system ~n:80 ~spacing:0.2 in
  System.run_for system 240.0;
  check int_t "reads completed" 80 (List.length !reports);
  check bool_t "both attackers excluded" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:v1
    && Corrective.is_excluded (System.corrective system) ~slave_id:v2);
  (* Honest slaves were never excluded. *)
  check int_t "exactly two exclusions" 2
    (List.length (Corrective.excluded (System.corrective system)))

let test_e2e_all_slaves_excluded_gives_up () =
  (* One master, one slave; once it is excluded there is no slave left.
     With degraded reads off the read must fail cleanly rather than
     hang; with them on (the default) the trusted master serves it. *)
  let run ~degraded =
    let config =
      {
        fast_config with
        Config.double_check_probability = 1.0;
        degraded_reads = degraded;
      }
    in
    let system =
      System.create ~n_masters:1 ~slaves_per_master:1 ~n_clients:1 ~config
        ~net:System.lan_net ~seed:31L ()
    in
    System.load_content system catalog;
    System.set_slave_behavior system ~slave:0
      (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
    let outcome = ref None in
    System.read system ~client:0 (Query.point_read "item:001") ~on_done:(fun r ->
        outcome := Some r.Client.outcome);
    System.run_for system 240.0;
    check bool_t "read completed (did not hang)" true (!outcome <> None);
    check bool_t "slave excluded" true
      (Corrective.is_excluded (System.corrective system) ~slave_id:0);
    (system, !outcome)
  in
  let _, outcome = run ~degraded:false in
  (match outcome with
  | Some `Gave_up -> ()
  | Some (`Accepted _ | `Served_by_master _) ->
    Alcotest.fail "no slave could have served this and degraded reads are off"
  | None -> ());
  let system, outcome = run ~degraded:true in
  (match outcome with
  | Some (`Served_by_master _) -> ()
  | Some (`Accepted _) -> Alcotest.fail "no slave could have served this"
  | Some `Gave_up -> Alcotest.fail "degraded mode should have fallen back to the master"
  | None -> ());
  check bool_t "degraded read counted" true
    (Client.degraded_reads (System.client system 0) >= 1)

let test_e2e_auditor_queue_bounded () =
  (* A tiny intake queue under a read burst must shed load (counted in
     auditor.overload_drops) instead of growing without bound, and the
     shedding must not disturb the read path. *)
  let config = { fast_config with Config.auditor_queue_capacity = 3 } in
  let system = make_system ~config ~seed:33L () in
  (* A write parks the audit cursor at the old version for
     max_latency + audit_lag_slack; the read burst right behind it
     queues new-version pledges faster than the cursor can advance. *)
  System.write system ~client:0
    (Oplog.Set_field { key = "item:000"; field = "stock"; value = Value.Int 42 })
    ~on_done:(fun _ -> ());
  System.run_for system 1.0;
  let reports = issue_reads system ~n:60 ~spacing:0.02 in
  System.run_for system 120.0;
  check int_t "reads unaffected by shedding" 60 (List.length !reports);
  let auditor = System.auditor system in
  check bool_t "overload drops counted" true (Auditor.overload_drops auditor > 0);
  check bool_t "backlog stayed within capacity" true (Auditor.backlog auditor <= 3);
  check int_t "stat mirrors the accessor"
    (Auditor.overload_drops auditor)
    (Stats.get (System.stats system) "auditor.overload_drops")

let test_e2e_batched_pledges_honest () =
  (* Merkle-batched signing: every read still accepts, nobody is
     accused, the slave signs far fewer times than it serves, and the
     re-execution memo absorbs the repeats. *)
  let config =
    {
      fast_config with
      Config.pledge_batch_size = 4;
      (* Wide enough that consecutive reads of one slave land in the
         same batch; p = 0 so every accepted read forwards its pledge
         (a double-checked read goes to the master instead, which would
         make the audited count inexact for reasons unrelated to
         batching). *)
      pledge_batch_window = 0.3;
      double_check_probability = 0.0;
    }
  in
  let system = make_system ~config () in
  let reports = issue_reads system ~n:40 ~spacing:0.05 in
  System.run_for system 60.0;
  check int_t "all reads completed" 40 (List.length !reports);
  List.iter
    (fun r ->
      match r.Client.outcome with
      | `Accepted _ -> ()
      | `Served_by_master _ | `Gave_up -> Alcotest.fail "expected slave-served accept")
    !reports;
  check int_t "no wrong accepts" 0 (Stats.get (System.stats system) "system.accepted_wrong");
  check int_t "nothing caught" 0 (Auditor.caught (System.auditor system));
  check int_t "no exclusions" 0 (List.length (Corrective.excluded (System.corrective system)));
  let stats = System.stats system in
  let signatures = Stats.get stats "slave.signatures" in
  check bool_t "batching amortized signatures" true (signatures > 0 && signatures <= 20);
  check bool_t "batch events emitted" true
    (List.mem "pledge_batch_signed" (Trace.kinds (System.trace system)));
  let auditor = System.auditor system in
  check int_t "auditor audited every pledge" 40 (Auditor.audited auditor);
  let memo_hits = Secrep_store.Audit_index.hits (Auditor.cache auditor) in
  check bool_t "memo hits recorded" true (memo_hits > 0);
  check int_t "memo hits mirror the stat" memo_hits (Stats.get stats "auditor.cache_hits")

let test_e2e_batched_attack_caught () =
  (* A lying slave cannot hide inside a batch: the proof pins its
     pledge to the corrupt digest and the audit convicts as before. *)
  let config =
    {
      fast_config with
      Config.pledge_batch_size = 4;
      double_check_probability = 0.0;
    }
  in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 120.0;
  check int_t "reads completed" 40 (List.length !reports);
  check bool_t "liar caught despite batching" true (Auditor.caught (System.auditor system) > 0);
  check bool_t "liar excluded" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim)

let test_e2e_auditor_matches_naive_reference () =
  (* The live auditor judges pledges through [Audit_core.audit_pledge]
     and its memos.  At a full audit budget, with nothing late, sampled
     out or shed, its convictions and signature rejections must equal
     the naive reference's verdicts over exactly the pledges it got. *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let pledges = ref [] in
  System.on_pledge_submitted system (fun p -> pledges := p :: !pledges);
  let lie ~slave mode =
    System.set_slave_behavior system ~slave
      (Fault.Malicious { probability = 1.0; mode; from_time = 0.0 })
  in
  lie ~slave:0 Fault.Corrupt_result;
  lie ~slave:1 Fault.Bad_signature;
  let reports = issue_reads system ~n:60 ~spacing:0.1 in
  System.run_for system 120.0;
  check int_t "reads completed" 60 (List.length !reports);
  let pledges = List.rev !pledges in
  let naive =
    Audit_core.run_naive
      ~slave_public:(fun id ->
        if id >= 0 && id < System.n_slaves system then
          Some (Slave.public (System.slave system id))
        else None)
      ~reexec:(fun ~version query -> System.reexec_digest system ~version query)
      pledges
  in
  let count v = List.length (List.filter (Audit_core.equal_verdict v) naive) in
  let auditor = System.auditor system in
  let stats = System.stats system in
  check int_t "no late pledges" 0 (Auditor.late_pledges auditor);
  check int_t "none sampled out" 0 (Stats.get stats "auditor.sampled_out");
  check int_t "none shed" 0 (Auditor.overload_drops auditor);
  check int_t "every pledge audited" (List.length pledges) (Auditor.audited auditor);
  check bool_t "the corrupt liar was convicted" true (count Audit_core.Caught > 0);
  check int_t "caught = naive Caught" (count Audit_core.Caught) (Auditor.caught auditor);
  check int_t "bad signatures = naive Bad_signature" (count Audit_core.Bad_signature)
    (Stats.get stats "auditor.bad_signatures")

let test_e2e_batched_accounting_exact () =
  (* Satellite regression: audit_fraction sampling accounting stays
     exact when pledges arrive batched — every forwarded pledge is
     either audited or sampled out, none double-counted or lost. *)
  let run ~batch =
    let config =
      {
        fast_config with
        Config.double_check_probability = 0.0;
        audit_fraction = 0.3;
        pledge_batch_size = batch;
      }
    in
    let system = make_system ~config ~seed:21L () in
    let reports = issue_reads system ~n:40 ~spacing:0.2 in
    System.run_for system 60.0;
    check int_t "reads done" 40 (List.length !reports);
    let audited = Auditor.audited (System.auditor system) in
    let sampled_out = Stats.get (System.stats system) "auditor.sampled_out" in
    let late = Auditor.late_pledges (System.auditor system) in
    check int_t
      (Printf.sprintf "batch=%d: every pledge audited or sampled out" batch)
      40
      (audited + sampled_out + late);
    check int_t (Printf.sprintf "batch=%d: none late" batch) 0 late
  in
  run ~batch:1;
  run ~batch:4

let test_e2e_batched_queue_bound_accounting () =
  (* Satellite regression: a batch straddling the auditor's intake
     capacity sheds the overflow pledge-by-pledge — overload_drops and
     late_pledges accounting stays exact, the queue bound holds, and the
     read path is untouched. *)
  let run ~batch =
    let config =
      {
        fast_config with
        Config.auditor_queue_capacity = 3;
        pledge_batch_size = batch;
        double_check_probability = 0.0;
      }
    in
    let system = make_system ~config ~seed:33L () in
    System.write system ~client:0
      (Oplog.Set_field { key = "item:000"; field = "stock"; value = Value.Int 42 })
      ~on_done:(fun _ -> ());
    System.run_for system 1.0;
    let reports = issue_reads system ~n:60 ~spacing:0.02 in
    System.run_for system 120.0;
    check int_t (Printf.sprintf "batch=%d: reads unaffected" batch) 60 (List.length !reports);
    let auditor = System.auditor system in
    check bool_t
      (Printf.sprintf "batch=%d: overload drops counted" batch)
      true
      (Auditor.overload_drops auditor > 0);
    check bool_t
      (Printf.sprintf "batch=%d: backlog within capacity" batch)
      true
      (Auditor.backlog auditor <= 3);
    check int_t
      (Printf.sprintf "batch=%d: stat mirrors accessor" batch)
      (Auditor.overload_drops auditor)
      (Stats.get (System.stats system) "auditor.overload_drops");
    (* Exactness: after the run settles, every forwarded pledge is
       accounted for exactly once across the four disjoint outcomes. *)
    check int_t
      (Printf.sprintf "batch=%d: audited + dropped + late + backlog = forwarded" batch)
      60
      (Auditor.audited auditor + Auditor.overload_drops auditor
      + Auditor.late_pledges auditor + Auditor.backlog auditor)
  in
  run ~batch:1;
  run ~batch:3

let test_e2e_greedy_client_throttled () =
  (* Client 0 double-checks everything (p=1 via a tight greedy config);
     the other clients behave.  The master must start ignoring some of
     client 0's double-checks. *)
  let config =
    {
      fast_config with
      Config.double_check_probability = 1.0;
      greedy_window = 120.0;
      greedy_factor = 3.0;
      greedy_min_samples = 8;
    }
  in
  let system = make_system ~config ~n_clients:6 () in
  (* All clients share master 0's view of greediness only if they share
     the master; force all reads through client 0 plus light traffic
     from the siblings on the same master. *)
  let m0 = System.master_of_client system 0 in
  let siblings =
    List.filter
      (fun c -> c <> 0 && System.master_of_client system c = m0)
      (List.init (System.n_clients system) Fun.id)
  in
  let sim = System.sim system in
  for i = 0 to 99 do
    ignore
      (Sim.schedule sim ~delay:(0.5 *. float_of_int i) (fun () ->
           System.read system ~client:0
             (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
             ~on_done:(fun _ -> ())))
  done;
  List.iteri
    (fun j c ->
      for i = 0 to 4 do
        ignore
          (Sim.schedule sim
             ~delay:(10.0 *. float_of_int ((j * 5) + i))
             (fun () ->
               System.read system ~client:c
                 (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
                 ~on_done:(fun _ -> ())))
      done)
    siblings;
  System.run_for system 240.0;
  check bool_t "greedy client got throttled" true
    (Stats.get (System.stats system) "master.double_checks_throttled" > 0)

let test_e2e_leveled_reads () =
  (* The top graded level has effective probability 1.0 and therefore
     executes on the master (§4's refinement). *)
  let system = make_system () in
  let top = Security_level.Leveled (Security_level.levels - 1) in
  let report = ref None in
  System.read system ~client:0 ~level:top (Query.point_read "item:001") ~on_done:(fun r ->
      report := Some r);
  System.run_for system 30.0;
  (match !report with
  | Some r ->
    check bool_t "top level served by master" true
      (match r.Client.outcome with `Served_by_master _ -> true | _ -> false)
  | None -> Alcotest.fail "read never completed")

let test_e2e_slave_resync_after_partition () =
  (* Cut the master->slave update channel, commit writes, heal: the
     slave detects the version gap via the next keep-alive/update and
     the master's resync closes it. *)
  let system = make_system ~n_masters:1 ~slaves_per_master:1 ~n_clients:1 () in
  let write i ~on_done =
    System.write system ~client:0
      (Oplog.Set_field { key = "item:000"; field = "stock"; value = Value.Int (100 + i) })
      ~on_done
  in
  System.run_for system 5.0;
  check int_t "slave in sync initially" (Master.version (System.master system 0))
    (Slave.version (System.slave system 0));
  (* There is no direct link handle exposed for master->slave, so
     emulate the partition by making the slave drop updates: a
     Stale_state behavior switched on and off. *)
  System.set_slave_behavior system ~slave:0
    (Fault.Malicious { probability = 0.0; mode = Fault.Stale_state; from_time = 0.0 });
  let committed = ref false in
  write 1 ~on_done:(fun _ -> committed := true);
  System.run_for system 30.0;
  check bool_t "write committed" true !committed;
  check bool_t "slave is behind" true
    (Slave.version (System.slave system 0) < Master.version (System.master system 0));
  (* Heal: honest again; the next update or keep-alive carries a gap
     which triggers the resync pull. *)
  System.set_slave_behavior system ~slave:0 Fault.Honest;
  write 2 ~on_done:(fun _ -> ());
  System.run_for system 60.0;
  check int_t "slave caught up" (Master.version (System.master system 0))
    (Slave.version (System.slave system 0));
  check bool_t "a resync was served" true
    (Stats.get (System.stats system) "master.resyncs_served" >= 1)

let test_e2e_audit_disabled_no_forwarding () =
  let config = { fast_config with Config.audit_enabled = false } in
  let system = make_system ~config () in
  let reports = issue_reads system ~n:10 ~spacing:0.2 in
  System.run_for system 30.0;
  check int_t "reads done" 10 (List.length !reports);
  check int_t "auditor saw nothing" 0
    (Stats.get (System.stats system) "auditor.pledges_received")

let test_e2e_slave_list_gossip () =
  (* §3: masters learn each other's slave sets from the periodic
     broadcast, and crash recovery uses the gossiped list. *)
  let system = make_system ~n_masters:2 () in
  System.run_for system 20.0;
  let m0 = System.master system 0 and m1 = System.master system 1 in
  check bool_t "m0 knows m1's slaves" true
    (List.length (Master.peer_slaves m0 ~of_:1) > 0);
  check bool_t "m1 knows m0's slaves" true
    (List.length (Master.peer_slaves m1 ~of_:0) > 0);
  check bool_t "gossip matches reality" true
    (Master.peer_slaves m0 ~of_:1 = Master.slave_ids m1);
  let orphans = Master.slave_ids m0 in
  System.crash_master system 0;
  System.run_for system 30.0;
  (* Every orphan now belongs to the survivor. *)
  List.iter
    (fun s -> check int_t "orphan re-homed to master 1" 1 (System.master_of_slave system s))
    orphans

let test_e2e_tainted_reads_on_delayed_discovery () =
  (* Delayed discovery: the reads a client accepted from the convict
     are identified for rollback (§3.5). *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let sim = System.sim system in
  for i = 0 to 9 do
    ignore
      (Sim.schedule sim ~delay:(0.2 *. float_of_int i) (fun () ->
           System.read system ~client:0
             (Query.point_read (Printf.sprintf "item:%03d" i))
             ~on_done:(fun _ -> ())))
  done;
  System.run_for system 120.0;
  check bool_t "victim excluded" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  check bool_t "client 0 has tainted reads to roll back" true
    (Client.tainted_reads (System.client system 0) >= 1);
  check bool_t "stat recorded" true
    (Stats.get (System.stats system) "client.reads_tainted" >= 1)

let test_e2e_multiple_auditors_share_load () =
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:4 ~n_auditors:2 ~config
      ~net:System.lan_net ~seed:11L ()
  in
  System.load_content system catalog;
  let sim = System.sim system in
  for i = 0 to 39 do
    ignore
      (Sim.schedule sim ~delay:(0.2 *. float_of_int i) (fun () ->
           System.read system ~client:(i mod 4)
             (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
             ~on_done:(fun _ -> ())))
  done;
  System.run_for system 60.0;
  let audited = List.map Auditor.audited (System.auditors system) in
  check int_t "two auditors" 2 (List.length audited);
  check int_t "every pledge audited exactly once" 40 (List.fold_left ( + ) 0 audited);
  List.iter
    (fun n -> check bool_t "both shards got work" true (n > 0))
    audited

let test_e2e_slave_readmission () =
  (* §3.5: a hacked slave is excluded, repaired, readmitted with a
     fresh checkpoint, and serves correct reads again; the exclusion
     stays on its record. *)
  let config = { fast_config with Config.double_check_probability = 1.0 } in
  let system = make_system ~config () in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  System.read system ~client:0 (Query.point_read "item:001") ~on_done:(fun _ -> ());
  System.run_for system 60.0;
  check bool_t "excluded" true
    (Corrective.is_currently_excluded (System.corrective system) ~slave_id:victim);
  check bool_t "cannot readmit a non-excluded slave" true
    (match System.readmit_slave system ~slave_id:(victim + 1) with
    | Error _ -> true
    | Ok () -> false);
  (* A write while the slave is out, so its old state is stale. *)
  System.write system ~client:1
    (Oplog.Set_field { key = "item:001"; field = "price"; value = Value.Float 123.0 })
    ~on_done:(fun _ -> ());
  System.run_for system 30.0;
  (match System.readmit_slave system ~slave_id:victim with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check bool_t "no longer currently excluded" false
    (Corrective.is_currently_excluded (System.corrective system) ~slave_id:victim);
  check bool_t "history preserved" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  check int_t "checkpoint brought it to the master's version"
    (Master.version (System.master system (System.master_of_slave system victim)))
    (Slave.version (System.slave system victim));
  (* Drive reads directly through the readmitted slave. *)
  let correct = ref 0 in
  let s = System.slave system victim in
  for _ = 1 to 3 do
    Slave.handle_read s ~client:0 ~request:(-1) ~query:(Query.point_read "item:001")
      ~reply:(fun r ->
        match r with
        | Some { Slave.result; _ } ->
          let digest = Canonical.result_digest result in
          (match
             System.check_result system ~version:(Slave.version s)
               (Query.point_read "item:001") ~digest
           with
          | Some true -> incr correct
          | Some false | None -> ())
        | None -> ())
  done;
  System.run_for system 10.0;
  check int_t "serves fresh, correct state" 3 !correct

let test_e2e_determinism () =
  (* Equal seeds must replay byte-identical runs: same counters, same
     exclusions, same latencies. *)
  let run () =
    let system = make_system ~seed:12345L () in
    let victim = System.slave_of_client system 0 in
    System.set_slave_behavior system ~slave:victim
      (Fault.Malicious { probability = 0.5; mode = Fault.Corrupt_result; from_time = 2.0 });
    let reports = issue_reads system ~n:30 ~spacing:0.25 in
    System.run_for system 120.0;
    let latencies =
      List.map (fun r -> Printf.sprintf "%.9f" r.Client.latency) (List.rev !reports)
    in
    (Stats.counters (System.stats system), Corrective.excluded (System.corrective system), latencies)
  in
  let c1, e1, l1 = run () in
  let c2, e2, l2 = run () in
  check bool_t "counters identical" true (c1 = c2);
  check bool_t "exclusions identical" true (e1 = e2);
  check bool_t "latencies identical" true (l1 = l2)

let test_e2e_client_setup_counts () =
  let system = make_system () in
  check bool_t "every client set up" true
    (Stats.get (System.stats system) "system.client_setups" >= System.n_clients system);
  (* Assignments are consistent: each client's slave belongs to its
     master. *)
  for c = 0 to System.n_clients system - 1 do
    let m = System.master_of_client system c and s = System.slave_of_client system c in
    check int_t "slave owned by client's master" m (System.master_of_slave system s)
  done

(* The paper's headline guarantee as a property: across random seeds,
   lie modes and double-check probabilities, a permanently lying slave
   is ALWAYS eventually excluded while the audit is on — and no read
   that the oracle can check is ever accepted wrong without being
   followed by that exclusion. *)
let prop_eventual_detection =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"e2e: audit-on always catches a permanent liar"
       QCheck2.Gen.(triple (int_range 1 5000) (int_bound 2) (int_bound 2))
       (fun (seed, mode_i, p_i) ->
         let mode =
           match mode_i with
           | 0 -> Fault.Corrupt_result
           | 1 -> Fault.Collude "prop"
           | _ -> Fault.Stale_state
         in
         let p = [| 0.0; 0.05; 0.3 |].(p_i) in
         let config = { fast_config with Config.double_check_probability = p } in
         let system = make_system ~config ~seed:(Int64.of_int seed) () in
         let victim = System.slave_of_client system 0 in
         System.set_slave_behavior system ~slave:victim
           (Fault.Malicious { probability = 1.0; mode; from_time = 0.0 });
         (* A write *after* the freeze, so Stale_state actually
            diverges on the key the reads will hit. *)
         System.write system ~client:1
           (Oplog.Set_field { key = "item:000"; field = "stock"; value = Value.Int 9999 })
           ~on_done:(fun _ -> ());
         System.run_for system 10.0;
         for i = 0 to 29 do
           ignore
             (Sim.schedule (System.sim system) ~delay:(0.3 *. float_of_int i) (fun () ->
                  System.read system ~client:0 (Query.point_read "item:000")
                    ~on_done:(fun _ -> ())))
         done;
         System.run_for system 240.0;
         Corrective.is_excluded (System.corrective system) ~slave_id:victim))

let () =
  Alcotest.run "secrep_core"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "rejects bad settings" `Quick test_config_rejects;
          Alcotest.test_case "read give-up bound" `Quick test_config_give_up_bound;
        ] );
      ( "identity",
        [
          Alcotest.test_case "self-certifying content id" `Quick test_content_identity;
          Alcotest.test_case "certificates" `Quick test_certificate_verify;
          Alcotest.test_case "directory" `Quick test_directory;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "sign/verify/freshness" `Quick test_keepalive;
          Alcotest.test_case "replay window boundary (property)" `Quick
            test_keepalive_replay_window;
          Alcotest.test_case "replay rejected via pledge chain" `Quick
            test_keepalive_replay_rejected_via_pledge;
        ] );
      ( "pledge",
        [
          Alcotest.test_case "verifies" `Quick test_pledge_ok;
          Alcotest.test_case "failure branches + framing" `Quick test_pledge_failure_branches;
          Alcotest.test_case "batched mode verifies" `Quick test_pledge_batched_ok;
          Alcotest.test_case "batched mode rejections" `Quick test_pledge_batched_rejects;
        ] );
      ( "wire",
        [
          Alcotest.test_case "keepalive roundtrip" `Quick test_wire_keepalive_roundtrip;
          Alcotest.test_case "pledge roundtrip" `Quick test_wire_pledge_roundtrip;
          Alcotest.test_case "batched pledge roundtrip" `Quick
            test_wire_batched_pledge_roundtrip;
          Alcotest.test_case "certificate roundtrip" `Quick test_wire_certificate_roundtrip;
          Alcotest.test_case "pledge payload is its frame's prefix" `Quick
            test_wire_pledge_payload_is_frame_prefix;
          Alcotest.test_case "payload domains differ" `Quick test_wire_payload_domains_differ;
          Alcotest.test_case "rsa public roundtrip" `Quick test_wire_rsa_public_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_wire_garbage_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_wire_truncation_rejected;
          Alcotest.test_case "oversize rejected" `Quick test_wire_oversize_rejected;
          Alcotest.test_case "random bytes never crash" `Quick
            test_wire_random_bytes_never_crash;
          Alcotest.test_case "mutation fuzz" `Quick test_wire_mutation_fuzz;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "flags heavy client" `Quick test_greedy_flags_heavy_client;
          Alcotest.test_case "throttles" `Quick test_greedy_throttles;
          Alcotest.test_case "window expiry" `Quick test_greedy_window_expiry;
        ] );
      ("security_level", [ Alcotest.test_case "ladder" `Quick test_security_levels ]);
      ("fault", [ Alcotest.test_case "behavior" `Quick test_fault_behavior ]);
      ("corrective", [ Alcotest.test_case "log" `Quick test_corrective_log ]);
      ( "end_to_end",
        [
          Alcotest.test_case "honest run" `Quick test_e2e_honest_run;
          Alcotest.test_case "typed event taxonomy + span phases" `Quick
            test_e2e_event_taxonomy;
          Alcotest.test_case "audit catches liar (delayed discovery)" `Quick
            test_e2e_audit_catches_liar;
          Alcotest.test_case "double-check catches liar (immediate)" `Quick
            test_e2e_double_check_catches_liar;
          Alcotest.test_case "bad signature rejected client-side" `Quick
            test_e2e_bad_signature_rejected_client_side;
          Alcotest.test_case "omit attack times out" `Quick test_e2e_omit_attack_times_out;
          Alcotest.test_case "stale-state attack caught" `Quick test_e2e_stale_state_attack_caught;
          Alcotest.test_case "sensitive reads bypass slaves" `Quick
            test_e2e_sensitive_reads_bypass_slaves;
          Alcotest.test_case "quorum read detects mismatch" `Quick
            test_e2e_quorum_read_detects_mismatch;
          Alcotest.test_case "quorum read honest" `Quick test_e2e_quorum_read_honest;
          Alcotest.test_case "quorum of one is single" `Quick test_quorum_of_one_is_single;
          Alcotest.test_case "lost double-check charges no slave" `Quick
            test_lost_double_check_charges_no_slave;
          Alcotest.test_case "write rate limited" `Quick test_e2e_write_rate_limited;
          Alcotest.test_case "write ACL" `Quick test_e2e_write_acl;
          Alcotest.test_case "master crash failover" `Quick test_e2e_master_crash_failover;
          Alcotest.test_case "freshness bound holds" `Quick test_e2e_freshness_bound_holds;
          Alcotest.test_case "audit cache effective" `Quick test_e2e_audit_cache_effective;
          Alcotest.test_case "audit fraction samples" `Quick test_e2e_audit_fraction_samples;
          Alcotest.test_case "two simultaneous attackers" `Quick
            test_e2e_two_simultaneous_attackers;
          Alcotest.test_case "all slaves excluded -> clean give-up" `Quick
            test_e2e_all_slaves_excluded_gives_up;
          Alcotest.test_case "auditor queue bounded" `Quick test_e2e_auditor_queue_bounded;
          Alcotest.test_case "batched pledges: honest run" `Quick
            test_e2e_batched_pledges_honest;
          Alcotest.test_case "batched pledges: attack caught" `Quick
            test_e2e_batched_attack_caught;
          Alcotest.test_case "auditor matches the naive reference" `Quick
            test_e2e_auditor_matches_naive_reference;
          Alcotest.test_case "batched pledges: sampling accounting exact" `Quick
            test_e2e_batched_accounting_exact;
          Alcotest.test_case "batched pledges: queue-bound accounting exact" `Quick
            test_e2e_batched_queue_bound_accounting;
          Alcotest.test_case "greedy client throttled" `Quick test_e2e_greedy_client_throttled;
          Alcotest.test_case "leveled reads reach the master" `Quick test_e2e_leveled_reads;
          Alcotest.test_case "slave resync after partition" `Quick
            test_e2e_slave_resync_after_partition;
          Alcotest.test_case "audit disabled: no forwarding" `Quick
            test_e2e_audit_disabled_no_forwarding;
          Alcotest.test_case "slave-list gossip + crash recovery" `Quick
            test_e2e_slave_list_gossip;
          Alcotest.test_case "tainted reads on delayed discovery" `Quick
            test_e2e_tainted_reads_on_delayed_discovery;
          Alcotest.test_case "multiple auditors share load" `Quick
            test_e2e_multiple_auditors_share_load;
          Alcotest.test_case "slave recovery and readmission" `Quick
            test_e2e_slave_readmission;
          Alcotest.test_case "determinism across equal seeds" `Quick test_e2e_determinism;
          Alcotest.test_case "client setup" `Quick test_e2e_client_setup_counts;
          prop_eventual_detection;
        ] );
    ]
