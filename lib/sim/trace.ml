type record = { time : float; source : string; event : Event.t }

type t = {
  capacity : int;
  ring : record option array;
  mutable next : int; (* next write slot *)
  mutable total : int;
  mutable subscribers : (record -> unit) list;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; total = 0; subscribers = [] }

let on_emit t f = t.subscribers <- t.subscribers @ [ f ]

let emit t ~time ~source event =
  let r = { time; source; event } in
  t.ring.(t.next) <- Some r;
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1;
  List.iter (fun f -> f r) t.subscribers

let log t ~time ~source msg = emit t ~time ~source (Event.Log msg)

let size t = min t.total t.capacity
let total_logged t = t.total

let to_list t =
  let n = size t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((start + i) mod t.capacity) with
    | Some r -> out := r :: !out
    | None -> assert false
  done;
  !out

let message r = Event.to_string r.event

let find t ~f = List.find_opt f (to_list t)
let count_matching t ~f = List.length (List.filter f (to_list t))
let count_kind t ~kind = count_matching t ~f:(fun r -> String.equal (Event.kind r.event) kind)

let kinds t =
  List.sort_uniq String.compare (List.map (fun r -> Event.kind r.event) (to_list t))
