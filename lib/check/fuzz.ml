type outcome =
  | Passed of { runs : int }
  | Failed of { failure : Scenario.t Prop.failure; replay : string }

(* The failing run's own seed plus every campaign pin: without the pins
   the generator draws a different scenario from the same seed. *)
let replay_hint ?shards ?slaves_per_master ?invariants (f : Scenario.t Prop.failure) =
  let pin flag = Option.fold ~none:[] ~some:(fun v -> [ Printf.sprintf "%s %d" flag v ]) in
  String.concat " "
    ((Printf.sprintf "secrep_sim_cli fuzz --seed %Ld --runs 1" f.Prop.seed :: pin "--shards" shards)
    @ pin "--replication-factor" slaves_per_master
    @ List.map (fun c -> "--invariant " ^ c.Invariant.name) (Option.value ~default:[] invariants))

let run ?(runs = 100) ?(max_shrink_steps = 200) ?invariants ?shards ?slaves_per_master
    ~seed () =
  (* CLI pins: applied after generation AND after every shrink step so
     a pinned campaign never drifts off the requested topology. *)
  let pin s =
    let s =
      match shards with None -> s | Some k -> { s with Scenario.n_shards = k }
    in
    match slaves_per_master with
    | None -> s
    | Some r -> { s with Scenario.slaves_per_master = r }
  in
  let gen = Gen.map pin Scenario.gen in
  let shrink s = Seq.map pin (Scenario.shrink s) in
  (* Every shard is judged independently against the full invariant
     set. *)
  let checkers = Option.value ~default:Invariant.all invariants in
  let prop scenario =
    let results = Harness.run scenario in
    let many = List.length results > 1 in
    List.fold_left
      (fun (acc, i) result ->
        let acc =
          match acc with
          | Error _ -> acc
          | Ok () -> (
            match Invariant.check_all checkers result with
            | Ok () -> Ok ()
            | Error msg ->
              Error (if many then Printf.sprintf "[shard %d] %s" i msg else msg))
        in
        (acc, i + 1))
      (Ok (), 0) results
    |> fst
  in
  match
    Prop.check ~runs ~max_shrink_steps ~seed ~gen ~shrink prop
  with
  | Prop.Pass { runs } -> Passed { runs }
  | Prop.Fail f ->
    Failed { failure = f; replay = replay_hint ?shards ?slaves_per_master ?invariants f }

let pp_outcome fmt = function
  | Passed { runs } ->
    Format.fprintf fmt "fuzz: %d run(s), all invariants held" runs
  | Failed { failure = f; replay } ->
    Format.fprintf fmt
      "@[<v>fuzz: FAILED on run %d (seed %Ld)@,\
       @,\
       violation: %s@,\
       @,\
       original %a@,\
       @,\
       shrunk (%d step(s), %d candidate(s) tried): %s@,\
       shrunk %a@,\
       @,\
       replay: %s@]"
      f.Prop.run f.Prop.seed f.Prop.reason Scenario.pp f.Prop.original f.Prop.shrink_steps
      f.Prop.shrink_attempts f.Prop.shrunk_reason Scenario.pp f.Prop.shrunk replay
