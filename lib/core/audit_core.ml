(* Audit verdicts over pledges.

   [audit_pledge] is the auditor's per-pledge judgement, shared by the
   live [Auditor] and the offline [run_dedup]: check the signature
   (through the verified-roots memo for a batched pledge), look the
   query up in the re-execution memo or re-execute it, then compare
   digests.  [run_naive] is the reference: it fully verifies and
   re-executes every pledge.  Differential testing demands the two
   agree verdict for verdict on any input. *)

module Merkle = Secrep_crypto.Merkle
module Sig_scheme = Secrep_crypto.Sig_scheme
module Audit_index = Secrep_store.Audit_index

type verdict = Ok_pledge | Caught | Bad_signature

let equal_verdict (a : verdict) b = a = b

let pp_verdict fmt = function
  | Ok_pledge -> Format.pp_print_string fmt "ok"
  | Caught -> Format.pp_print_string fmt "caught"
  | Bad_signature -> Format.pp_print_string fmt "bad-signature"

let judge ~reexec (pledge : Pledge.t) ~signature_ok =
  if not signature_ok then Bad_signature
  else begin
    match reexec ~version:(Pledge.version pledge) pledge.Pledge.query with
    | None -> Bad_signature (* unanswerable query incriminates nobody *)
    | Some honest_digest ->
      if String.equal honest_digest pledge.Pledge.result_digest then Ok_pledge else Caught
  end

let run_naive ~slave_public ~reexec pledges =
  List.map
    (fun (pledge : Pledge.t) ->
      let signature_ok =
        match slave_public pledge.Pledge.slave_id with
        | Some public -> Pledge.verify_signature ~slave_public:public pledge
        | None -> false
      in
      judge ~reexec pledge ~signature_ok)
    pledges

type memo = { roots : (int * string * string, bool) Hashtbl.t; index : Audit_index.t }

let memo ?capacity () = { roots = Hashtbl.create 64; index = Audit_index.create ?capacity () }

type signature_work = Full_verify | Root_verify | Root_cached
type 'work query_work = Memo_hit | Reexecuted of 'work | Unanswerable

type 'work judgement = {
  verdict : verdict;
  signature : signature_work;
  query : 'work query_work option;
}

(* A [Batched] pledge costs a full verification only for the first
   pledge carrying its root; every later one is a hash-only
   inclusion-proof check against the memoized outcome. *)
let check_signature memo ~slave_public (pledge : Pledge.t) =
  match slave_public pledge.Pledge.slave_id with
  | None -> (false, Full_verify)
  | Some public -> begin
    match pledge.Pledge.mode with
    | Pledge.Single -> (Pledge.verify_signature ~slave_public:public pledge, Full_verify)
    | Pledge.Batched { root; proof } -> begin
      let proof_ok = Merkle.verify ~root ~leaf:(Pledge.signed_payload pledge) proof in
      let key = (pledge.Pledge.slave_id, root, pledge.Pledge.signature) in
      match Hashtbl.find_opt memo.roots key with
      | Some ok -> (proof_ok && ok, Root_cached)
      | None ->
        let ok =
          Sig_scheme.verify public
            ~msg:(Pledge.batch_payload ~slave_id:pledge.Pledge.slave_id ~root)
            ~signature:pledge.Pledge.signature
        in
        Hashtbl.add memo.roots key ok;
        (proof_ok && ok, Root_verify)
    end
  end

let audit_pledge memo ~slave_public ~reexec (pledge : Pledge.t) =
  let signature_ok, signature = check_signature memo ~slave_public pledge in
  if not signature_ok then { verdict = Bad_signature; signature; query = None }
  else begin
    let version = Pledge.version pledge and query = pledge.Pledge.query in
    let honest, work =
      match Audit_index.find memo.index ~version query with
      | Some digest -> (Some digest, Memo_hit)
      | None -> begin
        match reexec ~version query with
        | None -> (None, Unanswerable)
        | Some (digest, work) ->
          Audit_index.store memo.index ~version query ~digest;
          (Some digest, Reexecuted work)
      end
    in
    let verdict =
      match honest with
      | None -> Bad_signature (* unanswerable query incriminates nobody *)
      | Some digest ->
        if String.equal digest pledge.Pledge.result_digest then Ok_pledge else Caught
    in
    { verdict; signature; query = Some work }
  end

let run_dedup ~slave_public ~reexec pledges =
  let memo = memo () in
  let reexec ~version query = Option.map (fun digest -> (digest, ())) (reexec ~version query) in
  let verdicts =
    List.fold_left
      (fun acc pledge -> (audit_pledge memo ~slave_public ~reexec pledge).verdict :: acc)
      [] pledges
  in
  (List.rev verdicts, memo)

type sampled = {
  audited : int;
  caught : int;
  first_caught : int option;
  caught_by_slave : (int * int) list;
}

let run_sampled ~draws ~fraction ~adaptive ?(floor = 0.25) ~slave_public ~reexec
    pledges =
  if List.length pledges > Array.length draws then
    invalid_arg "Audit_core.run_sampled: fewer draws than pledges";
  (* Offline suspicion: bumped by the conviction amount on every Caught
     verdict, never decayed.  Decay is a liveness refinement; the
     no-worse comparison only needs the ordering of scores, which decay
     preserves between catches. *)
  let susp : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let probability slave =
    let s =
      match Hashtbl.find_opt susp slave with
      | Some s -> s
      | None ->
        Hashtbl.replace susp slave 0.0;
        0.0
    in
    if not adaptive then fraction
    else begin
      let sum = Hashtbl.fold (fun _ v acc -> acc +. v) susp 0.0 in
      let mean = sum /. float_of_int (Hashtbl.length susp) in
      Float.min 1.0
        (Float.max (floor *. fraction) (fraction *. (1.0 +. s) /. (1.0 +. mean)))
    end
  in
  let audited = ref 0 in
  let caught = ref 0 in
  let first_caught = ref None in
  let caught_by_slave : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i (pledge : Pledge.t) ->
      let slave = pledge.Pledge.slave_id in
      let p = probability slave in
      if draws.(i) < p then begin
        incr audited;
        let signature_ok =
          match slave_public slave with
          | Some public -> Pledge.verify_signature ~slave_public:public pledge
          | None -> false
        in
        match judge ~reexec pledge ~signature_ok with
        | Caught ->
          incr caught;
          if !first_caught = None then first_caught := Some i;
          Hashtbl.replace caught_by_slave slave
            (1 + Option.value ~default:0 (Hashtbl.find_opt caught_by_slave slave));
          let s = Option.value ~default:0.0 (Hashtbl.find_opt susp slave) in
          Hashtbl.replace susp slave (s +. 2.0)
        | Ok_pledge | Bad_signature -> ()
      end)
    pledges;
  {
    audited = !audited;
    caught = !caught;
    first_caught = !first_caught;
    caught_by_slave =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) caught_by_slave []);
  }
