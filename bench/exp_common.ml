module System = Secrep_core.System
module Config = Secrep_core.Config
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog

let row_line ~widths cells =
  let padded =
    List.map2
      (fun w cell ->
        let len = String.length cell in
        if len >= w then cell else cell ^ String.make (w - len) ' ')
      widths cells
  in
  Printf.sprintf "| %s |" (String.concat " | " padded)

let wall_clock_mark = "[wall-clock]"
let wall_clock_line fmt line = Format.fprintf fmt "%s %s@." line wall_clock_mark

let table fmt ~title ~header ?(wall_clock = []) rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      (rows @ wall_clock)
  in
  let total = List.fold_left ( + ) 0 widths + (3 * List.length widths) + 1 in
  let print_row row = Format.fprintf fmt "%s@." (row_line ~widths row) in
  Format.fprintf fmt "@.%s@.%s@." title (String.make total '-');
  print_row header;
  Format.fprintf fmt "%s@." (String.make total '-');
  List.iter print_row rows;
  List.iter (fun row -> wall_clock_line fmt (row_line ~widths row)) wall_clock;
  Format.fprintf fmt "%s@." (String.make total '-')

type gate = {
  name : string;
  value : string;
  threshold : string;
  ok : bool;
  applies : bool;
}

let gate ?(applies = true) name ~value ~threshold ok =
  { name; value; threshold; ok; applies }

let pp_gate fmt ~experiment g =
  Format.fprintf fmt "gate %s %s: %s (measured %s; threshold %s%s)@." experiment g.name
    (if not g.applies then "SKIP" else if g.ok then "PASS" else "FAIL")
    g.value g.threshold
    (if g.applies then "" else "; does not apply on this machine")

let exit_code gates =
  if List.exists (fun g -> g.applies && not g.ok) gates then 1 else 0

let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let base_config =
  {
    Config.default with
    Config.max_latency = 5.0;
    keepalive_period = 1.0;
    double_check_probability = 0.05;
    audit_lag_slack = 1.0;
  }

let build_system ?(config = base_config) ?(n_masters = 2) ?(slaves_per_master = 3)
    ?(n_clients = 6) ?(seed = 1L) ?(n_items = 200) ?client_max_latency () =
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config ~seed
      ?client_max_latency ()
  in
  let g = Prng.create ~seed:(Int64.add seed 1000L) in
  let content = Catalog.product_catalog g ~n:n_items in
  System.load_content system content;
  (system, Array.of_list (List.map fst content))

let drain system ~extra = System.run_for system extra

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let quick_factor quick = if quick then 0.25 else 1.0
