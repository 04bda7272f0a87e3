module Field_map = Map.Make (String)

type t = Value.t Field_map.t

let empty = Field_map.empty

let of_fields pairs =
  List.fold_left (fun acc (name, v) -> Field_map.add name v acc) Field_map.empty pairs

let fields t = Field_map.bindings t
let fold t ~init ~f = Field_map.fold (fun name v acc -> f acc name v) t init
let get t name = Field_map.find_opt name t
let set t name v = Field_map.add name v t
let remove t name = Field_map.remove name t
let mem t name = Field_map.mem name t
let field_count t = Field_map.cardinal t
let equal a b = Field_map.equal Value.equal a b

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
       (fun f (name, v) -> Format.fprintf f "%s=%a" name Value.pp v))
    (fields t)
