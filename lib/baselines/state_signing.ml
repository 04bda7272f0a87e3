module Sim = Secrep_sim.Sim
module Link = Secrep_sim.Link
module Work_queue = Secrep_sim.Work_queue
module Prng = Secrep_crypto.Prng
module Sig_scheme = Secrep_crypto.Sig_scheme
module Merkle = Secrep_crypto.Merkle
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Codec = Secrep_store.Codec

let costs = Baseline_common.default_costs

type t = {
  sim : Sim.t;
  signer : Sig_scheme.keypair;
  store : Store.t; (* the untrusted storage contents *)
  trusted : Work_queue.t; (* the trusted host's CPU *)
  to_storage : Link.t;
  from_storage : Link.t;
  to_trusted : Link.t;
  from_trusted : Link.t;
  mutable tree : Merkle.t option;
  mutable leaf_keys : string array; (* leaf i authenticates leaf_keys.(i) *)
  mutable root_signature : string;
  mutable tampered : (string, string) Hashtbl.t; (* key -> fake block bytes *)
}

let block_bytes key doc = key ^ "\x00" ^ Codec.encode_document doc

let rebuild t =
  let keys = Array.of_list (Store.keys t.store) in
  t.leaf_keys <- keys;
  if Array.length keys = 0 then begin
    t.tree <- None;
    t.root_signature <- Sig_scheme.sign t.signer (Printf.sprintf "root|empty|%d" (Store.version t.store))
  end
  else begin
    let leaves =
      Array.to_list keys
      |> List.map (fun key ->
             match Store.get t.store key with
             | Some doc -> block_bytes key doc
             | None -> assert false)
    in
    let tree = Merkle.build leaves in
    t.tree <- Some tree;
    t.root_signature <-
      Sig_scheme.sign t.signer
        (Printf.sprintf "root|%s|%d" (Secrep_crypto.Hex.encode (Merkle.root tree))
           (Store.version t.store))
  end

let create sim ~rng ~storage_latency ~trusted_latency ~signer () =
  let t =
    {
      sim;
      signer;
      store = Store.create ();
      trusted = Work_queue.create sim ();
      to_storage =
        Link.create sim ~rng:(Prng.split rng) ~latency:storage_latency ~name:"ss->storage" ();
      from_storage =
        Link.create sim ~rng:(Prng.split rng) ~latency:storage_latency ~name:"ss<-storage" ();
      to_trusted =
        Link.create sim ~rng:(Prng.split rng) ~latency:trusted_latency ~name:"ss->trusted" ();
      from_trusted =
        Link.create sim ~rng:(Prng.split rng) ~latency:trusted_latency ~name:"ss<-trusted" ();
      tree = None;
      leaf_keys = [||];
      root_signature = "";
      tampered = Hashtbl.create 4;
    }
  in
  rebuild t;
  t

let version t = Store.version t.store

let root_payload t =
  match t.tree with
  | None -> Printf.sprintf "root|empty|%d" (Store.version t.store)
  | Some tree ->
    Printf.sprintf "root|%s|%d" (Secrep_crypto.Hex.encode (Merkle.root tree))
      (Store.version t.store)

let root_signature_valid t =
  Sig_scheme.verify (Sig_scheme.public_of t.signer) ~msg:(root_payload t)
    ~signature:t.root_signature

let load_content t pairs =
  List.iter (fun (key, doc) -> Store.apply t.store (Oplog.Put { key; doc })) pairs;
  rebuild t

let write t op ~on_done =
  let start = Sim.now t.sim in
  Store.apply t.store op;
  Hashtbl.reset t.tampered;
  (* Rebuilding the hash path + one signature; we charge a logarithmic
     number of hashes plus the signature. *)
  let n = max 1 (Store.key_count t.store) in
  let path_hashes = int_of_float (ceil (log (float_of_int n) /. log 2.0)) + 1 in
  let cost =
    (float_of_int path_hashes *. costs.Baseline_common.hash_cost)
    +. costs.Baseline_common.signature_cost
  in
  rebuild t;
  Work_queue.submit t.trusted ~cost (fun () -> on_done (Sim.now t.sim -. start))

let tamper_block t ~key =
  if Store.mem t.store key then begin
    Hashtbl.replace t.tampered key ("tampered\x00" ^ key);
    true
  end
  else false

let leaf_index t key =
  let found = ref None in
  Array.iteri (fun i k -> if String.equal k key && !found = None then found := Some i) t.leaf_keys;
  !found

let proof_length_for t ~key =
  match (t.tree, leaf_index t key) with
  | Some tree, Some idx -> Some (Merkle.proof_length (Merkle.prove tree idx))
  | _ -> None

let point_read t key ~on_done =
  let start = Sim.now t.sim in
  Link.send t.to_storage (fun () ->
      (* Storage returns the block (possibly tampered) and the Merkle
         path; the *client* verifies, so no trusted compute at all. *)
      let honest_block =
        match Store.get t.store key with Some doc -> Some (block_bytes key doc) | None -> None
      in
      let served_block =
        match Hashtbl.find_opt t.tampered key with
        | Some fake -> Some fake
        | None -> honest_block
      in
      Link.send t.from_storage (fun () ->
          match (t.tree, leaf_index t key, served_block) with
          | Some tree, Some idx, Some block ->
            let proof = Merkle.prove tree idx in
            let verify_cost =
              (float_of_int (Merkle.proof_length proof + 1)
              *. costs.Baseline_common.hash_cost)
              +. costs.Baseline_common.verify_cost
            in
            let authentic = Merkle.verify ~root:(Merkle.root tree) ~leaf:block proof in
            on_done
              {
                Baseline_common.latency = (Sim.now t.sim -. start) +. verify_cost;
                server_executions = 0;
                trusted_compute = 0.0;
                untrusted_compute = 0.0;
                correct = authentic && served_block = honest_block;
              }
          | _ ->
            (* Key absent: absence proofs are out of scope; report an
               incorrect-free miss. *)
            on_done
              {
                Baseline_common.latency = Sim.now t.sim -. start;
                server_executions = 0;
                trusted_compute = 0.0;
                untrusted_compute = 0.0;
                correct = true;
              }))

let dynamic_read t query ~on_done =
  let start = Sim.now t.sim in
  (* The client asks the trusted host; the trusted host pulls every
     relevant block from storage, verifies each Merkle path, then
     executes the query locally (§5's complaint about this scheme). *)
  Link.send t.to_trusted (fun () ->
      Link.send t.to_storage (fun () ->
          Link.send t.from_storage (fun () ->
              match Query_eval.execute t.store query with
              | Error _ ->
                Link.send t.from_trusted (fun () ->
                    on_done
                      {
                        Baseline_common.latency = Sim.now t.sim -. start;
                        server_executions = 0;
                        trusted_compute = 0.0;
                        untrusted_compute = 0.0;
                        correct = false;
                      })
              | Ok { result = _; scanned } ->
                let n = max 1 (Store.key_count t.store) in
                let path = int_of_float (ceil (log (float_of_int n) /. log 2.0)) + 1 in
                let verify_all =
                  float_of_int (scanned * path) *. costs.Baseline_common.hash_cost
                in
                let exec =
                  Query_eval.cost_seconds ~scanned ~cost_class:(Query.cost_class query)
                    ~per_doc:costs.Baseline_common.per_doc_cost
                in
                let cost = verify_all +. exec +. costs.Baseline_common.verify_cost in
                Work_queue.submit t.trusted ~cost (fun () ->
                    Link.send t.from_trusted (fun () ->
                        on_done
                          {
                            Baseline_common.latency = Sim.now t.sim -. start;
                            server_executions = 1;
                            trusted_compute = cost;
                            untrusted_compute = 0.0;
                            correct = true;
                          })))))

let read t query ~on_done =
  match query with
  | Query.Select { from = Query.Key key; where = Query.True; project = None; limit = None } ->
    point_read t key ~on_done
  | _ -> dynamic_read t query ~on_done
