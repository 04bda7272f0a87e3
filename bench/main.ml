(* Benchmark & experiment harness.

   Usage: dune exec bench/main.exe -- [--full] [e1 e2 ... e15 | micro | all]

   With no arguments every experiment plus the micro-benchmarks run in
   quick mode; --full lengthens the runs (more trials, longer
   simulated durations).  Each experiment regenerates one table or
   figure of EXPERIMENTS.md.  E11-E15 also check their claims as
   gates, one line each; after every selected experiment has run, the
   harness exits 1 if an applicable gate failed. *)

open Secrep_experiments

let ungated (name, description, (run : ?quick:bool -> Format.formatter -> unit)) =
  (name, description, fun ?quick fmt -> run ?quick fmt; [])

let experiments =
  List.map ungated
    [
      ("e1", "double-check detection vs p", Exp1_detection.run);
      ("e2", "audit guarantees eventual detection", Exp2_audit.run);
      ("e3", "cost vs SMR and state signing", Exp3_cost.run);
      ("e4", "max_latency staleness bound", Exp4_staleness.run);
      ("e5", "write rate cap", Exp5_writes.run);
      ("e6", "auditor asymmetry + diurnal catch-up", Exp6_auditor.run);
      ("e7", "security-levelled reads", Exp7_levels.run);
      ("e8", "quorum reads vs collusion", Exp8_quorum.run);
      ("e9", "ablations: audit cache, extra auditors, greedy throttle", Exp9_ablation.run);
      ("e10", "availability + detection latency under churn and partitions", Exp10_churn.run);
    ]
  @ [
      ("e11", "deduplicated audit re-execution + Merkle-batched pledge signing",
       Exp11_audit.run);
      ("e12", "sharded content plane: throughput + detection vs shard count", Exp12_shard.run);
      ("e13", "strategic adversaries: uniform vs suspicion-weighted auditing",
       Exp13_adversary.run);
      ("e14", "domain-parallel shard execution: speedup + determinism oracle",
       Exp14_parallel.run);
      ("e15", "Montgomery crypto kernel: ops/s + bit-identity vs seed baseline",
       Exp15_crypto.run);
      ungated ("micro", "primitive micro-benchmarks (bechamel)", Micro.run);
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let quick = not full in
  let selected =
    match List.filter (fun a -> a <> "--full" && a <> "all") args with
    | [] -> List.map (fun (name, _, _) -> name) experiments
    | names -> names
  in
  let fmt = Format.std_formatter in
  Format.fprintf fmt
    "secrep experiment harness (%s mode) — reproducing the quantitative claims of@.\
     Popescu, Crispo & Tanenbaum, \"Secure Data Replication over Untrusted Hosts\" \
     (HotOS 2003)@."
    (if quick then "quick" else "full");
  let gates =
    List.concat_map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (n, description, run) ->
          let experiment = String.uppercase_ascii n in
          Format.fprintf fmt "@.=== %s: %s ===@." experiment description;
          let t0 = Unix.gettimeofday () in
          let gates = run ~quick fmt in
          if gates <> [] then Format.fprintf fmt "@.";
          List.iter (Exp_common.pp_gate fmt ~experiment) gates;
          Exp_common.wall_clock_line fmt
            (Printf.sprintf "(%s took %.1fs)" n (Unix.gettimeofday () -. t0));
          gates
        | None ->
          Format.fprintf fmt "unknown experiment %S; available: %s@." name
            (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
          exit 1)
      selected
  in
  exit (Exp_common.exit_code gates)
