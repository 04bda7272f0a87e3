type discovery = Immediate | Delayed

type event = {
  time : float;
  slave_id : int;
  discovery : discovery;
  clients_reassigned : int;
}

type t = {
  mutable events : event list; (* newest first *)
  mutable readmissions : (int * float) list; (* slave_id, time; newest first *)
}

let create () = { events = []; readmissions = [] }
let record t event = t.events <- event :: t.events

let readmit t ~slave_id ~time = t.readmissions <- (slave_id, time) :: t.readmissions
let events t = List.rev t.events

let excluded t =
  List.sort_uniq Int.compare (List.map (fun e -> e.slave_id) t.events)

let is_excluded t ~slave_id = List.exists (fun e -> e.slave_id = slave_id) t.events

let last_exclusion_time t ~slave_id =
  List.fold_left
    (fun acc e -> if e.slave_id = slave_id then Float.max acc e.time else acc)
    neg_infinity t.events

let last_readmission_time t ~slave_id =
  List.fold_left
    (fun acc (s, time) -> if s = slave_id then Float.max acc time else acc)
    neg_infinity t.readmissions

let is_currently_excluded t ~slave_id =
  is_excluded t ~slave_id
  && last_exclusion_time t ~slave_id >= last_readmission_time t ~slave_id

let currently_excluded t =
  List.filter (fun slave_id -> is_currently_excluded t ~slave_id) (excluded t)

let first_detection t ~slave_id =
  List.fold_left
    (fun acc e ->
      if e.slave_id <> slave_id then acc
      else match acc with Some a when a.time <= e.time -> acc | _ -> Some e)
    None t.events

let count t ~discovery = List.length (List.filter (fun e -> e.discovery = discovery) t.events)
