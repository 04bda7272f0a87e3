type t = {
  window : float;
  samples : (float * float) Queue.t;
  mutable last_time : float;
  mutable sum : float;
  (* From the first [percentile] on, [sorted.(0 .. count - 1)] holds the
     retained values in ascending order; [sorted] has spare capacity
     past [count] and is empty until then. *)
  mutable ordered : bool;
  mutable sorted : float array;
}

let create ~window () =
  if window <= 0.0 then invalid_arg "Rolling.create: window must be positive";
  {
    window;
    samples = Queue.create ();
    last_time = neg_infinity;
    sum = 0.0;
    ordered = false;
    sorted = [||];
  }

let window t = t.window
let count t = Queue.length t.samples

(* First index in [a.(0 .. n - 1)] whose value is not below [v]. *)
let lower_bound a n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Float.compare a.(mid) v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Both run while [count t] still excludes [v] (insert) or includes it
   (remove). *)
let insert_sorted t v =
  let n = count t in
  if n = Array.length t.sorted then begin
    let a = Array.make (max 64 (2 * n)) 0.0 in
    Array.blit t.sorted 0 a 0 n;
    t.sorted <- a
  end;
  let i = lower_bound t.sorted n v in
  Array.blit t.sorted i t.sorted (i + 1) (n - i);
  t.sorted.(i) <- v

let remove_sorted t v =
  let n = count t in
  let i = lower_bound t.sorted n v in
  Array.blit t.sorted (i + 1) t.sorted i (n - i - 1)

let evict t ~now =
  let cutoff = now -. t.window in
  let rec loop () =
    match Queue.peek_opt t.samples with
    | Some (ts, v) when ts < cutoff ->
      if t.ordered then remove_sorted t v;
      ignore (Queue.pop t.samples);
      t.sum <- t.sum -. v;
      loop ()
    | _ -> ()
  in
  loop ()

let advance t ~now =
  if now < t.last_time then invalid_arg "Rolling.advance: time went backwards";
  t.last_time <- now;
  evict t ~now

let record t ~time v =
  if time < t.last_time then invalid_arg "Rolling.record: time went backwards";
  t.last_time <- time;
  if t.ordered then insert_sorted t v;
  Queue.add (time, v) t.samples;
  t.sum <- t.sum +. v;
  evict t ~now:time

let sum t = t.sum
let mean t = if Queue.is_empty t.samples then None else Some (t.sum /. float_of_int (count t))

let values t =
  let a = Array.make (count t) 0.0 in
  let i = ref 0 in
  Queue.iter
    (fun (_, v) ->
      a.(!i) <- v;
      incr i)
    t.samples;
  a

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Rolling.percentile: p outside [0,100]";
  let n = count t in
  if n = 0 then None
  else begin
    if not t.ordered then begin
      t.sorted <- values t;
      Array.sort Float.compare t.sorted;
      t.ordered <- true
    end;
    (* nearest-rank: smallest value with at least p% of samples <= it *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = max 0 (min (n - 1) (rank - 1)) in
    Some t.sorted.(idx)
  end
