module Json = Secrep_sim.Export.Json

type t = {
  alerts : Slo.alert list;
  active_rules : string list;
  summary : Lineage.summary;
  clients : Lineage.client_row list;
  slaves : Lineage.slave_row list;
  quarantines : Lineage.quarantine list;
}

let build ~slo ~lineage () =
  Lineage.finalize lineage;
  {
    alerts = Slo.alerts slo;
    active_rules = List.map (fun (a : Slo.alert) -> a.Slo.rule) (Slo.active slo);
    summary = Lineage.summarize lineage;
    clients = Lineage.client_rows lineage;
    slaves = Lineage.slave_rows lineage;
    quarantines = Lineage.quarantines lineage;
  }

let healthy t = t.alerts = []

let opt_num = function Some x -> Json.Num x | None -> Json.Null
let opt_int = function Some x -> Json.Int x | None -> Json.Null

let to_json t =
  Json.Obj
    [
      ("healthy", Json.Bool (healthy t));
      ("alerts", Json.Arr (List.map Slo.json_of_alert t.alerts));
      ("active_rules", Json.Arr (List.map (fun r -> Json.Str r) t.active_rules));
      ("lineage", Lineage.json_of_summary t.summary);
      ( "clients",
        Json.Arr
          (List.map
             (fun (c : Lineage.client_row) ->
               Json.Obj
                 [
                   ("client", Json.Int c.Lineage.client);
                   ("issued", Json.Int c.Lineage.issued);
                   ("accepted", Json.Int c.Lineage.accepted);
                   ("degraded", Json.Int c.Lineage.degraded);
                   ("gave_up", Json.Int c.Lineage.gave_up);
                   ("outstanding", Json.Int c.Lineage.outstanding);
                 ])
             t.clients) );
      ( "slaves",
        Json.Arr
          (List.map
             (fun (s : Lineage.slave_row) ->
               Json.Obj
                 [
                   ("slave", Json.Int s.Lineage.slave);
                   ("served", Json.Int s.Lineage.served);
                   ("lied_served", Json.Int s.Lineage.lied_served);
                   ("first_accused_at", opt_num s.Lineage.first_accused_at);
                   ("reads_before_detection", opt_int s.Lineage.reads_before_detection);
                   ("detection_latency", opt_num s.Lineage.detection_latency);
                 ])
             t.slaves) );
      ( "quarantines",
        Json.Arr
          (List.map
             (fun (q : Lineage.quarantine) ->
               Json.Obj
                 [
                   ("time", Json.Num q.Lineage.time);
                   ("slave", Json.Int q.Lineage.slave);
                   ("score", Json.Num q.Lineage.score);
                   ("until", Json.Num q.Lineage.until);
                 ])
             t.quarantines) );
    ]

let pp fmt t =
  let open Format in
  fprintf fmt "=== health report ===@.";
  fprintf fmt "status: %s@."
    (if healthy t then "HEALTHY (no alerts)"
     else
       Printf.sprintf "%d alert(s), %d still active" (List.length t.alerts)
         (List.length t.active_rules));
  if t.alerts <> [] then begin
    fprintf fmt "@.alerts:@.";
    List.iter (fun a -> fprintf fmt "  %a@." Slo.pp_alert a) t.alerts
  end;
  fprintf fmt "@.%a" Lineage.pp_summary t.summary;
  if t.slaves <> [] then begin
    fprintf fmt "@.per-slave:@.";
    fprintf fmt "  %-6s %8s %12s %14s %20s@." "slave" "served" "lied-served" "accused-at"
      "detection-latency";
    List.iter
      (fun (s : Lineage.slave_row) ->
        fprintf fmt "  %-6d %8d %12d %14s %20s@." s.Lineage.slave s.Lineage.served
          s.Lineage.lied_served
          (match s.Lineage.first_accused_at with
          | Some x -> Printf.sprintf "%.4f" x
          | None -> "-")
          (match s.Lineage.detection_latency with
          | Some x -> Printf.sprintf "%.4f" x
          | None -> "-"))
      t.slaves
  end;
  if t.quarantines <> [] then begin
    fprintf fmt "@.quarantines (probation, not accusations):@.";
    List.iter
      (fun (q : Lineage.quarantine) ->
        fprintf fmt "  [%10.4f] slave %d  suspicion %.2f  until %.4f@." q.Lineage.time
          q.Lineage.slave q.Lineage.score q.Lineage.until)
      t.quarantines
  end;
  if t.clients <> [] then begin
    fprintf fmt "@.per-client:@.";
    fprintf fmt "  %-6s %8s %9s %9s %8s %12s@." "client" "issued" "accepted" "degraded"
      "gave-up" "outstanding";
    List.iter
      (fun (c : Lineage.client_row) ->
        fprintf fmt "  %-6d %8d %9d %9d %8d %12d@." c.Lineage.client c.Lineage.issued
          c.Lineage.accepted c.Lineage.degraded c.Lineage.gave_up c.Lineage.outstanding)
      t.clients
  end
