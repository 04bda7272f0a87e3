module Sim = Secrep_sim.Sim
module Link = Secrep_sim.Link
module Latency = Secrep_sim.Latency
module Work_queue = Secrep_sim.Work_queue
module Prng = Secrep_crypto.Prng
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Query_result = Secrep_store.Query_result
module Canonical = Secrep_store.Canonical

let costs = Baseline_common.default_costs

type replica = {
  store : Store.t;
  work : Work_queue.t;
  to_replica : Link.t;
  from_replica : Link.t;
  mutable byzantine : bool;
}

type t = {
  sim : Sim.t;
  rng : Prng.t;
  f : int;
  replicas : replica array;
  mutable total_compute : float;
}

let create sim ~rng ~f ~latency () =
  if f < 0 then invalid_arg "Smr_quorum.create: f must be non-negative";
  Latency.validate latency;
  let n = (3 * f) + 1 in
  let replicas =
    Array.init n (fun i ->
        {
          store = Store.create ();
          work = Work_queue.create sim ();
          to_replica =
            Link.create sim ~rng:(Prng.split rng) ~latency
              ~name:(Printf.sprintf "smr->r%d" i) ();
          from_replica =
            Link.create sim ~rng:(Prng.split rng) ~latency
              ~name:(Printf.sprintf "smr<-r%d" i) ();
          byzantine = false;
        })
  in
  { sim; rng; f; replicas; total_compute = 0.0 }

let n_replicas t = Array.length t.replicas
let quorum_size t = (2 * t.f) + 1
let version t = Store.version t.replicas.(0).store
let total_compute t = t.total_compute

let load_content t pairs =
  Array.iter
    (fun r ->
      List.iter (fun (key, doc) -> Store.apply r.store (Oplog.Put { key; doc })) pairs)
    t.replicas

let set_byzantine t ~count =
  if count < 0 || count > Array.length t.replicas then
    invalid_arg "Smr_quorum.set_byzantine: bad count";
  Array.iteri (fun i r -> r.byzantine <- i < count) t.replicas

let exec_cost query scanned =
  Query_eval.cost_seconds ~scanned ~cost_class:(Query.cost_class query)
    ~per_doc:costs.Baseline_common.per_doc_cost

(* Majority digest among replies; [None] when no value reaches f+1. *)
let majority t replies =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (digest, result) ->
      let count, _ =
        match Hashtbl.find_opt table digest with Some c -> c | None -> (0, result)
      in
      Hashtbl.replace table digest (count + 1, result))
    replies;
  Hashtbl.fold
    (fun _ (count, result) acc ->
      if count >= t.f + 1 then Some result else acc)
    table None

let read t query ~on_done =
  let start = Sim.now t.sim in
  let quorum = quorum_size t in
  (* Deterministically use the first 2f+1 replicas; byzantine ones are
     planted at the front by [set_byzantine], the adversarial
     placement. *)
  let replies = ref [] in
  let outstanding = ref quorum in
  let compute = ref 0.0 in
  for i = 0 to quorum - 1 do
    let r = t.replicas.(i) in
    Link.send r.to_replica (fun () ->
        match Query_eval.execute r.store query with
        | Error _ ->
          Link.send r.from_replica (fun () ->
              decr outstanding;
              if !outstanding = 0 then
                on_done
                  {
                    Baseline_common.latency = Sim.now t.sim -. start;
                    server_executions = quorum;
                    trusted_compute = 0.0;
                    untrusted_compute = !compute;
                    correct = false;
                  })
        | Ok { result; scanned } ->
          let cost =
            exec_cost query scanned +. costs.Baseline_common.signature_cost
          in
          compute := !compute +. cost;
          t.total_compute <- t.total_compute +. cost;
          Work_queue.submit r.work ~cost (fun () ->
              let result =
                if r.byzantine then
                  Query_result.Agg (Secrep_store.Value.String "byzantine-lie")
                else result
              in
              Link.send r.from_replica (fun () ->
                  replies := (Canonical.result_digest result, result) :: !replies;
                  decr outstanding;
                  if !outstanding = 0 then begin
                    let correct =
                      match majority t !replies with
                      | Some agreed -> begin
                        (* Ground truth: replica stores are identical, so
                           any honest replica's result is the truth. *)
                        match Query_eval.execute t.replicas.(quorum - 1).store query with
                        | Ok { result = truth; _ } -> Query_result.equal agreed truth
                        | Error _ -> false
                      end
                      | None -> false
                    in
                    on_done
                      {
                        Baseline_common.latency = Sim.now t.sim -. start;
                        server_executions = quorum;
                        trusted_compute = 0.0;
                        untrusted_compute = !compute;
                        correct;
                      }
                  end)))
  done

let write t op ~on_done =
  let start = Sim.now t.sim in
  (* PBFT critical path: pre-prepare, prepare, commit — three one-way
     delays — then every replica applies the op. *)
  let outstanding = ref (Array.length t.replicas) in
  Array.iter
    (fun r ->
      Link.send r.to_replica (fun () ->
          Link.send r.to_replica (fun () ->
              Link.send r.to_replica (fun () ->
                  let cost = 1e-3 +. costs.Baseline_common.signature_cost in
                  t.total_compute <- t.total_compute +. cost;
                  Work_queue.submit r.work ~cost (fun () ->
                      Store.apply r.store op;
                      Link.send r.from_replica (fun () ->
                          decr outstanding;
                          if !outstanding = 0 then on_done (Sim.now t.sim -. start)))))))
    t.replicas
