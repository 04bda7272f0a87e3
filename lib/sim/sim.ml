type handle = Event_queue.handle

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : float;
  mutable executed : int;
}

let create () = { queue = Event_queue.create (); clock = 0.0; executed = 0 }

let now sim = sim.clock

let schedule_at sim ~time f =
  if time < sim.clock then invalid_arg "Sim.schedule_at: time in the past";
  Event_queue.push sim.queue ~time f

let schedule sim ~delay f =
  if delay < 0.0 || Float.is_nan delay then invalid_arg "Sim.schedule: negative delay";
  schedule_at sim ~time:(sim.clock +. delay) f

let cancel sim handle = Event_queue.cancel sim.queue handle

let pending sim = Event_queue.size sim.queue

(* Execute the next event; [false] when the queue is empty. *)
let step sim =
  match Event_queue.pop sim.queue with
  | None -> false
  | Some (time, f) ->
    assert (time >= sim.clock);
    sim.clock <- time;
    sim.executed <- sim.executed + 1;
    f ();
    true

let run ?until ?max_events sim =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    match until with
    | Some limit -> begin
      match Event_queue.peek_time sim.queue with
      | Some t when t <= limit ->
        ignore (step sim);
        decr budget
      | Some _ | None ->
        sim.clock <- max sim.clock limit;
        continue := false
    end
    | None ->
      if step sim then decr budget else continue := false
  done

let executed_events sim = sim.executed
