module Prng = Secrep_crypto.Prng

type t = {
  sim : Sim.t;
  rng : Prng.t;
  mutable latency : Latency.t;
  mutable loss : float;
  name : string;
  mutable up : bool;
  mutable epoch : int; (* bumped on every down transition: in-flight messages from an older epoch are dropped on arrival *)
  mutable delivered : int;
  mutable dropped : int;
  (* Byzantine delivery faults (off by default; the [> 0.0] guards keep
     the PRNG draw sequence identical to a fault-free link when off). *)
  mutable duplicate : float; (* probability a delivery arrives twice *)
  mutable reorder_burst : int; (* >= 2: buffer this many, release reversed *)
  mutable reorder_window : float; (* max extra holding time for a buffered delivery *)
  mutable reorder_buf : (int * (unit -> unit)) list; (* newest first *)
  mutable reorder_seq : int;
}

let create sim ~rng ~latency ?(loss = 0.0) ?(name = "link") () =
  Latency.validate latency;
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.create: loss must be in [0, 1)";
  {
    sim;
    rng;
    latency;
    loss;
    name;
    up = true;
    epoch = 0;
    delivered = 0;
    dropped = 0;
    duplicate = 0.0;
    reorder_burst = 0;
    reorder_window = 0.0;
    reorder_buf = [];
    reorder_seq = 0;
  }

(* Release everything held for reordering, newest arrival first — a
   burst of [reorder_burst] messages comes out exactly reversed. *)
let flush_reorder t =
  let buf = t.reorder_buf in
  t.reorder_buf <- [];
  List.iter (fun (_, deliver) -> deliver ()) buf

let arrive t deliver =
  t.delivered <- t.delivered + 1;
  if t.reorder_burst >= 2 then begin
    let id = t.reorder_seq in
    t.reorder_seq <- id + 1;
    t.reorder_buf <- (id, deliver) :: t.reorder_buf;
    if List.length t.reorder_buf >= t.reorder_burst then flush_reorder t
    else
      (* Deadline so a lull in traffic cannot hold messages forever. *)
      ignore
        (Sim.schedule t.sim ~delay:t.reorder_window (fun () ->
             if List.mem_assoc id t.reorder_buf then flush_reorder t))
  end
  else deliver ()

let schedule_delivery t ~delay deliver =
  let epoch = t.epoch in
  ignore
    (Sim.schedule t.sim ~delay (fun () ->
         if t.up && t.epoch = epoch then arrive t deliver
         else t.dropped <- t.dropped + 1))

let send t deliver =
  if (not t.up) || Prng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
  else begin
    schedule_delivery t ~delay:(Latency.sample t.latency t.rng) deliver;
    if t.duplicate > 0.0 && Prng.bernoulli t.rng t.duplicate then
      schedule_delivery t ~delay:(Latency.sample t.latency t.rng) deliver
  end

let set_up t up =
  if t.up && not up then t.epoch <- t.epoch + 1;
  t.up <- up

let set_loss t loss =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Link.set_loss: loss must be in [0, 1)";
  t.loss <- loss

let loss t = t.loss

let set_latency t latency =
  Latency.validate latency;
  t.latency <- latency

let latency t = t.latency

let set_duplicate t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Link.set_duplicate: must be in [0, 1)";
  t.duplicate <- p

let duplicate t = t.duplicate

let set_reorder t ~burst ~window =
  if burst < 0 || burst = 1 then
    invalid_arg "Link.set_reorder: burst must be 0 (off) or >= 2";
  if burst >= 2 && window <= 0.0 then
    invalid_arg "Link.set_reorder: window must be positive";
  (* Turning reordering off releases anything still held. *)
  if burst < 2 then flush_reorder t;
  t.reorder_burst <- burst;
  t.reorder_window <- window

let delivered t = t.delivered
let dropped t = t.dropped
let name t = t.name
