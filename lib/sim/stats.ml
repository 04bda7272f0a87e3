type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 8; histograms = Hashtbl.create 8 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t name = Stdlib.incr (counter t name)
let add t name v = counter t name := !(counter t name) + v
let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let set_gauge t name v = Hashtbl.replace t.gauges name v
let gauge t name = Hashtbl.find_opt t.gauges name

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create ~name () in
    Hashtbl.add t.histograms name h;
    h

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms t =
  Hashtbl.fold (fun _ h acc -> h :: acc) t.histograms []
  |> List.sort (fun a b -> String.compare (Histogram.name a) (Histogram.name b))
