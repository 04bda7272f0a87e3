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
  level : Security_level.t;
  level_chooser : (unit -> Security_level.t) option;
  mode : Client.read_mode;
  mutable reports : Client.read_report list; (* newest first *)
  latencies : Histogram.t;
  mutable next_client : int;
  mutable double_checks : int;
  mutable immediate : int;
}

let create system ~mix ~rng ?(level = Security_level.Normal) ?level_chooser
    ?(mode = Client.Single) () =
  {
    system;
    mix;
    rng;
    level;
    level_chooser;
    mode;
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
  let level =
    match t.level_chooser with Some choose -> choose () | None -> t.level
  in
  System.read t.system ~client ~level ~mode:t.mode query ~on_done:(fun report ->
      t.reports <- report :: t.reports;
      if report.Client.double_checked then t.double_checks <- t.double_checks + 1;
      (match report.Client.caught_slave with
      | Some _ -> t.immediate <- t.immediate + 1
      | None -> ());
      match report.Client.outcome with
      | `Accepted _ | `Served_by_master _ -> Histogram.add t.latencies report.Client.latency
      | `Gave_up -> ())

let schedule_poisson t ~rate ~duration action =
  if rate <= 0.0 then invalid_arg "Driver: rate must be positive";
  let sim = System.sim t.system in
  let start = Sim.now sim in
  let stop = start +. duration in
  (* All arrival times are drawn up front (they only depend on the
     driver's own rng), then scheduled relative to [start]. *)
  let rec arm time =
    let time = time +. Prng.exponential t.rng ~mean:(1.0 /. rate) in
    if time <= stop then begin
      ignore (Sim.schedule sim ~delay:(time -. start) (fun () -> action ()));
      arm time
    end
  in
  arm start

let run_reads t ~rate ~duration = schedule_poisson t ~rate ~duration (fun () -> issue_read t)

let run_diurnal_reads t ~diurnal ~duration =
  let sim = System.sim t.system in
  let stop = Sim.now sim +. duration in
  let rec arm now =
    let time = Diurnal.next_arrival diurnal t.rng ~now in
    if time <= stop then begin
      ignore (Sim.schedule sim ~delay:(time -. Sim.now sim) (fun () -> issue_read t));
      arm time
    end
  in
  arm (Sim.now sim)

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
