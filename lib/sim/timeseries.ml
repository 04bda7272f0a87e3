type t = {
  name : string;
  mutable times : float array;
  mutable values : float array;
  mutable count : int;
}

let create ?(name = "series") () = { name; times = [||]; values = [||]; count = 0 }

let record t ~time v =
  if t.count > 0 && time < t.times.(t.count - 1) then
    invalid_arg "Timeseries.record: time went backwards";
  let cap = Array.length t.times in
  if t.count = cap then begin
    let ncap = max 64 (2 * cap) in
    let ts = Array.make ncap 0.0 and vs = Array.make ncap 0.0 in
    Array.blit t.times 0 ts 0 t.count;
    Array.blit t.values 0 vs 0 t.count;
    t.times <- ts;
    t.values <- vs
  end;
  t.times.(t.count) <- time;
  t.values.(t.count) <- v;
  t.count <- t.count + 1

let length t = t.count
let name t = t.name

let points t = Array.init t.count (fun i -> (t.times.(i), t.values.(i)))

let max_value t =
  if t.count = 0 then None
  else begin
    let m = ref t.values.(0) in
    for i = 1 to t.count - 1 do
      if t.values.(i) > !m then m := t.values.(i)
    done;
    Some !m
  end

let downsample t ~buckets =
  if buckets <= 0 then invalid_arg "Timeseries.downsample: buckets must be positive";
  if t.count = 0 then [||]
  else begin
    let t0 = t.times.(0) and t1 = t.times.(t.count - 1) in
    let span = Float.max (t1 -. t0) epsilon_float in
    let sums = Array.make buckets 0.0 and counts = Array.make buckets 0 in
    for i = 0 to t.count - 1 do
      let b = min (buckets - 1) (int_of_float ((t.times.(i) -. t0) /. span *. float_of_int buckets)) in
      sums.(b) <- sums.(b) +. t.values.(i);
      counts.(b) <- counts.(b) + 1
    done;
    let out = ref [] in
    for b = buckets - 1 downto 0 do
      if counts.(b) > 0 then begin
        let mid = t0 +. ((float_of_int b +. 0.5) /. float_of_int buckets *. span) in
        out := (mid, sums.(b) /. float_of_int counts.(b)) :: !out
      end
    done;
    Array.of_list !out
  end

let pp_ascii ?(width = 60) ?(height = 12) fmt t =
  if t.count = 0 then Format.fprintf fmt "%s: (empty series)@." t.name
  else begin
    let pts = downsample t ~buckets:width in
    let vmax = Array.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 pts in
    let vmax = if vmax <= 0.0 then 1.0 else vmax in
    Format.fprintf fmt "%s (max=%.4g)@." t.name vmax;
    for row = height - 1 downto 0 do
      let threshold = float_of_int row /. float_of_int height *. vmax in
      let line =
        String.concat ""
          (Array.to_list (Array.map (fun (_, v) -> if v > threshold then "#" else " ") pts))
      in
      Format.fprintf fmt "|%s@." line
    done;
    Format.fprintf fmt "+%s@." (String.make (Array.length pts) '-')
  end
