type t = {
  sim : Sim.t;
  mutable busy_until : float;
  mutable completed : int;
  mutable busy_seconds : float;
}

let create sim () = { sim; busy_until = 0.0; completed = 0; busy_seconds = 0.0 }

let submit t ~cost k =
  if cost < 0.0 || Float.is_nan cost then invalid_arg "Work_queue.submit: bad cost";
  let now = Sim.now t.sim in
  let start = Float.max now t.busy_until in
  let finish = start +. cost in
  t.busy_until <- finish;
  t.busy_seconds <- t.busy_seconds +. cost;
  ignore
    (Sim.schedule t.sim ~delay:(finish -. now) (fun () ->
         t.completed <- t.completed + 1;
         k ()))

let busy_until t = t.busy_until
let completed t = t.completed
let busy_seconds t = t.busy_seconds
