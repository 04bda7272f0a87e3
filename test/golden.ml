(* Golden corpus: the seeded outputs this repository keeps byte-identical.

   Usage: golden.exe BENCH CLI EXAMPLE...   (paths to bench/main.exe,
   bin/secrep_sim_cli.exe and the examples/*.exe programs)

   Prints quick-mode E1-E13, nine pinned CLI commands and the four
   example programs in one stable rendering, which `dune runtest` diffs
   against golden.expected; after an intended change `dune promote`
   rewrites that file.  Lines ending in Exp_common.wall_clock_mark are
   the only ones that vary between runs of one build, and each is
   replaced by the mark alone.  CLI and example stdout is kept verbatim
   and each trace file reduced to its SHA-256. *)

let wall_clock = Secrep_experiments.Exp_common.wall_clock_mark
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [prog args] with stdout captured; returns (exit status, stdout). *)
let run prog args =
  let out = Filename.temp_file "golden" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let status =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> Printf.sprintf "exit %d" n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Printf.sprintf "signal %d" n
  in
  let stdout = read_file out in
  Sys.remove out;
  (status, stdout)

let experiments bench =
  let names = List.init 13 (fun i -> Printf.sprintf "e%d" (i + 1)) in
  let status, stdout = run bench names in
  Printf.printf "== bench/main.exe %s ==\n" (String.concat " " names);
  List.iter
    (fun line ->
      print_endline (if String.ends_with ~suffix:wall_clock line then wall_clock else line))
    (String.split_on_char '\n' (String.trim stdout));
  print_endline status

(* Each command writes its trace to the file named by the "T" argument. *)
let pinned =
  [
    "run --duration 60 --seed 3 --slo --trace-out T";
    "chaos --seed 42 --trace-out T";
    "run --shards 4 --domains 2 --duration 60 --seed 3 --trace-out T";
    "run --duration 60 --seed 3 --trace-format chrome --trace-out T";
    "campaign --seed 1";
    (* SLO alert streams: recovery, staleness, read-latency, breaker and
       false-accusation; auditor-lag; detection of a liar. *)
    "chaos --seed 5 --slo --trace-out T";
    "chaos --seed 2 --slo --trace-out T";
    "run --duration 60 --seed 3 --malicious 1 --lie-prob 0.05 --slo --trace-out T";
    (* Every counter, gauge and span.* histogram, which no trace carries. *)
    "run --duration 60 --seed 3 --malicious 1 --lie-prob 0.05 --metrics-out T";
  ]

let command cli line =
  let args = String.split_on_char ' ' line in
  let trace = Filename.temp_file "golden" ".trace" in
  Sys.remove trace;
  let status, stdout = run cli (List.map (fun a -> if a = "T" then trace else a) args) in
  Printf.printf "\n== secrep_sim_cli.exe %s ==\n%s\n%s" line status stdout;
  if Sys.file_exists trace then begin
    let contents = read_file trace in
    Sys.remove trace;
    Printf.printf "T sha256 %s\n" (Secrep_crypto.Sha256.hex_digest contents);
    if List.mem "chrome" args then
      Printf.printf "T parses as JSON: %s\n"
        (match Secrep_sim.Export.Json.parse contents with
         | Ok _ -> "yes"
         | Error e -> "no, " ^ e)
  end

let example exe =
  let status, stdout = run exe [] in
  Printf.printf "\n== examples/%s ==\n%s\n%s" (Filename.basename exe) status stdout

let () =
  match Array.to_list Sys.argv with
  | _ :: bench :: cli :: examples ->
    experiments bench;
    List.iter (command cli) pinned;
    List.iter example examples
  | _ ->
    prerr_endline "usage: golden.exe BENCH CLI EXAMPLE...";
    exit 2
