module Sim = Secrep_sim.Sim
module Histogram = Secrep_sim.Histogram
module Prng = Secrep_crypto.Prng
module System = Secrep_core.System
module Client = Secrep_core.Client
module Security_level = Secrep_core.Security_level
module Stats = Secrep_sim.Stats

type summary = {
  reads_completed : int;
  reads_accepted : int;
  reads_gave_up : int;
  served_by_master : int;
  accepted_wrong : int;
  double_checks : int;
  immediate_catches : int;
  mean_latency : float;
  p99_latency : float;
}

type t = {
  system : System.t;
  mix : Mix.t;
  rng : Prng.t;
  level_chooser : (unit -> Security_level.t) option;
  mutable reports : Client.read_report list; (* newest first *)
  latencies : Histogram.t;
  mutable next_client : int;
  mutable double_checks : int;
  mutable immediate : int;
}

let create system ~mix ~rng ?level_chooser () =
  {
    system;
    mix;
    rng;
    level_chooser;
    reports = [];
    latencies = Histogram.create ~name:"driver.read_latency" ();
    next_client = 0;
    double_checks = 0;
    immediate = 0;
  }

let issue_read t =
  let client = t.next_client in
  t.next_client <- (t.next_client + 1) mod System.n_clients t.system;
  let query = Mix.next_query t.mix in
  let level = Option.map (fun choose -> choose ()) t.level_chooser in
  System.read t.system ~client ?level query ~on_done:(fun report ->
      t.reports <- report :: t.reports;
      if report.Client.double_checked then t.double_checks <- t.double_checks + 1;
      (match report.Client.caught_slave with
      | Some _ -> t.immediate <- t.immediate + 1
      | None -> ());
      match report.Client.outcome with
      | `Accepted _ | `Served_by_master _ -> Histogram.add t.latencies report.Client.latency
      | `Gave_up -> ())

(* Poisson arrivals at [rate]/s.  The times are drawn up front from
   [t.rng], so successive calls on one [t] (reads, then writes) draw in
   call order.  Each time is rebased as [start + (time - start)], the
   instant a [~delay:(time - start)] schedule at [start] names.  Only
   the next arrival sits on the event queue: each one arms its
   successor when it fires, before its own action runs. *)
let schedule_poisson t ~rate ~duration action =
  if rate <= 0.0 then invalid_arg "Driver: rate must be positive";
  let next time = time +. Prng.exponential t.rng ~mean:(1.0 /. rate) in
  let sim = System.sim t.system in
  let start = Sim.now sim in
  let stop = start +. duration in
  let times = ref (Array.make 256 0.0) and n = ref 0 and time = ref (next start) in
  while !time <= stop do
    if !n = Array.length !times then begin
      let grown = Array.make (2 * !n) 0.0 in
      Array.blit !times 0 grown 0 !n;
      times := grown
    end;
    !times.(!n) <- start +. (!time -. start);
    incr n;
    time := next !time
  done;
  let times = !times and n = !n in
  let rec arm i =
    if i < n then
      ignore
        (Sim.schedule_at sim ~time:times.(i) (fun () ->
             arm (i + 1);
             action ()))
  in
  arm 0

let run_reads t ~rate ~duration = schedule_poisson t ~rate ~duration (fun () -> issue_read t)

let run_writes t ~rate ~duration ~writer =
  schedule_poisson t ~rate ~duration (fun () ->
      let op = Mix.next_write t.mix in
      System.write t.system ~client:writer op ~on_done:(fun _ -> ()))

let summary t =
  let reports = t.reports in
  let count f = List.length (List.filter f reports) in
  {
    reads_completed = List.length reports;
    reads_accepted =
      count (fun r -> match r.Client.outcome with `Accepted _ -> true | _ -> false);
    reads_gave_up =
      count (fun r -> match r.Client.outcome with `Gave_up -> true | _ -> false);
    served_by_master =
      count (fun r ->
          match r.Client.outcome with `Served_by_master _ -> true | _ -> false);
    accepted_wrong = Stats.get (System.stats t.system) "system.accepted_wrong";
    double_checks = t.double_checks;
    immediate_catches = t.immediate;
    mean_latency = (if Histogram.is_empty t.latencies then 0.0 else Histogram.mean t.latencies);
    p99_latency =
      (if Histogram.is_empty t.latencies then 0.0 else Histogram.percentile t.latencies 99.0);
  }

let reports t = List.rev t.reports
