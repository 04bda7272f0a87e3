type record = { name : string; source : string; start : float; duration : float }

type t = {
  capacity : int;
  ring : record option array;
  mutable next : int;
  mutable total : int;
  stats : Stats.t option;
}

let create ?(capacity = 4096) ?stats () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; total = 0; stats }

let histogram_name name = "span." ^ name

let record t ~source ~start ~duration name =
  if duration < 0.0 || Float.is_nan duration then invalid_arg "Span.record: bad duration";
  t.ring.(t.next) <- Some { name; source; start; duration };
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1;
  match t.stats with
  | Some stats -> Histogram.add (Stats.histogram stats (histogram_name name)) duration
  | None -> ()

let size t = min t.total t.capacity
let total_finished t = t.total

let finished t =
  let n = size t in
  let start = if t.total <= t.capacity then 0 else t.next in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((start + i) mod t.capacity) with
    | Some r -> out := r :: !out
    | None -> assert false
  done;
  !out
