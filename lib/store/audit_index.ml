(* The auditor's re-execution memo: "cache results in the simplest case"
   (§3.4), which is also Tan et al.'s deduplicated re-execution ("The
   Efficient Server Audit Problem, Deduplicated Re-execution, and the
   Web").

   Within one content version a query is a pure function of the store,
   so each distinct (version, query) is re-executed once and every later
   pledge for it settles against the memoized digest.  The auditor only
   looks up the version under audit, so an entry for an older version
   can never hit again: instead of evicting entry by entry, the table is
   emptied when the audit cursor advances and when it reaches its
   capacity.  At capacity 1 that keeps exactly the last digest. *)

type t = {
  capacity : int;
  table : (int * string, string) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Audit_index.create: capacity must be positive";
  { capacity; table = Hashtbl.create (min capacity 256); hits = 0; misses = 0 }

let key ~version q = (version, Canonical.of_query q)

let find t ~version q =
  match Hashtbl.find_opt t.table (key ~version q) with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    hit
  | None ->
    t.misses <- t.misses + 1;
    None

(* Constant time: [reset] drops the bucket array for a fresh one of the
   initial size rather than walking the entries. *)
let clear t = Hashtbl.reset t.table

let store t ~version q ~digest =
  if Hashtbl.length t.table >= t.capacity then clear t;
  Hashtbl.replace t.table (key ~version q) digest

let hits t = t.hits
let misses t = t.misses

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let size t = Hashtbl.length t.table
