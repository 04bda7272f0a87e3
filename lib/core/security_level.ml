type t = Normal | Leveled of int | Sensitive

let levels = 4

let double_check_probability ~base t =
  if base < 0.0 || base > 1.0 then invalid_arg "Security_level: base out of range";
  match t with
  | Normal -> base
  | Sensitive -> 1.0
  | Leveled i ->
    if i < 0 || i >= levels then invalid_arg "Security_level: level out of range";
    (* Geometric ladder: level 0 is the base probability, the top level
       is exactly 1.0 (so it collapses into "run on the master"),
       intermediate levels interpolate multiplicatively. *)
    if i = levels - 1 then 1.0
    else begin
      let base = Float.max base 1e-6 in
      let step = (1.0 /. base) ** (1.0 /. float_of_int (levels - 1)) in
      Float.min 1.0 (base *. (step ** float_of_int i))
    end

let executes_on_master ~base t =
  (* §4's collapse of "probability 1" into "run on the trusted host"
     applies to the graded/sensitive levels only; a Normal read with a
     base probability of 1 still goes to the slave and is then
     double-checked — that is §3.3's mechanism, not §4's. *)
  match t with Normal -> false | Leveled _ | Sensitive -> double_check_probability ~base t >= 1.0
