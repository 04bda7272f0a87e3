exception Parse_error of string

(* --- syntax tree ------------------------------------------------------ *)

type charset = Bytes.t (* 256 flags *)

type node =
  | Empty
  | Lit of charset
  | Cat of node * node
  | Alt of node * node
  | Star of node
  | Plus of node
  | Opt of node

let set_empty () = Bytes.make 256 '\000'

let set_add cs c = Bytes.set cs (Char.code c) '\001'

let set_range cs lo hi =
  if Char.code lo > Char.code hi then raise (Parse_error "bad range");
  for i = Char.code lo to Char.code hi do
    Bytes.set cs i '\001'
  done

let set_negate cs =
  Bytes.init 256 (fun i -> if Bytes.get cs i = '\000' then '\001' else '\000')

let set_mem cs c = Bytes.get cs (Char.code c) = '\001'

let set_single c =
  let cs = set_empty () in
  set_add cs c;
  cs

let set_any () = Bytes.make 256 '\001'

(* --- parser ----------------------------------------------------------- *)

type parser_state = { pattern : string; mutable pos : int }

let peek st = if st.pos < String.length st.pattern then Some st.pattern.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected '%c' at %d" c st.pos))

let parse_escape st =
  match peek st with
  | None -> raise (Parse_error "dangling backslash")
  | Some c ->
    advance st;
    (match c with
    | 'n' -> set_single '\n'
    | 't' -> set_single '\t'
    | 'r' -> set_single '\r'
    | 'd' ->
      let cs = set_empty () in
      set_range cs '0' '9';
      cs
    | 'w' ->
      let cs = set_empty () in
      set_range cs 'a' 'z';
      set_range cs 'A' 'Z';
      set_range cs '0' '9';
      set_add cs '_';
      cs
    | 's' ->
      let cs = set_empty () in
      List.iter (set_add cs) [ ' '; '\t'; '\n'; '\r' ];
      cs
    | c -> set_single c)

let parse_class st =
  (* '[' already consumed *)
  let negated =
    match peek st with
    | Some '^' ->
      advance st;
      true
    | _ -> false
  in
  let cs = set_empty () in
  let rec items first =
    match peek st with
    | None -> raise (Parse_error "unterminated character class")
    | Some ']' when not first -> advance st
    | Some c ->
      advance st;
      let c = if c = '\\' then (
          match peek st with
          | None -> raise (Parse_error "dangling backslash in class")
          | Some e -> advance st; e)
        else c
      in
      (match peek st with
      | Some '-' when st.pos + 1 < String.length st.pattern && st.pattern.[st.pos + 1] <> ']' ->
        advance st;
        (match peek st with
        | Some hi ->
          advance st;
          set_range cs c hi
        | None -> raise (Parse_error "unterminated range"))
      | _ -> set_add cs c);
      items false
  in
  items true;
  if negated then Lit (set_negate cs) else Lit cs

let rec parse_alt st =
  let left = parse_cat st in
  match peek st with
  | Some '|' ->
    advance st;
    Alt (left, parse_alt st)
  | _ -> left

and parse_cat st =
  let rec go acc =
    match peek st with
    | None | Some '|' | Some ')' -> acc
    | _ -> go (Cat (acc, parse_rep st))
  in
  match peek st with
  | None | Some '|' | Some ')' -> Empty
  | _ -> go (parse_rep st)

and parse_rep st =
  let atom = parse_atom st in
  let rec reps node =
    match peek st with
    | Some '*' ->
      advance st;
      reps (Star node)
    | Some '+' ->
      advance st;
      reps (Plus node)
    | Some '?' ->
      advance st;
      reps (Opt node)
    | _ -> node
  in
  reps atom

and parse_atom st =
  match peek st with
  | None -> raise (Parse_error "unexpected end of pattern")
  | Some '(' ->
    advance st;
    let inner = parse_alt st in
    expect st ')';
    inner
  | Some '[' ->
    advance st;
    parse_class st
  | Some '.' ->
    advance st;
    Lit (set_any ())
  | Some '\\' ->
    advance st;
    Lit (parse_escape st)
  | Some ('*' | '+' | '?') -> raise (Parse_error "repetition with nothing to repeat")
  | Some ')' -> raise (Parse_error "unbalanced ')'")
  | Some c ->
    advance st;
    Lit (set_single c)

(* --- NFA --------------------------------------------------------------- *)

(* States are integers; transitions are either epsilon edges or a
   single charset edge.  Compilation is the standard Thompson
   construction: each fragment has one entry and one exit. *)

type builder = {
  mutable n_states : int;
  mutable edges : (int * charset * int) list;
  mutable eps_edges : (int * int) list;
}

let new_state b =
  let s = b.n_states in
  b.n_states <- s + 1;
  s

let rec build b node entry exit_ =
  match node with
  | Empty -> b.eps_edges <- (entry, exit_) :: b.eps_edges
  | Lit cs -> b.edges <- (entry, cs, exit_) :: b.edges
  | Cat (l, r) ->
    let mid = new_state b in
    build b l entry mid;
    build b r mid exit_
  | Alt (l, r) ->
    build b l entry exit_;
    build b r entry exit_
  | Star inner ->
    let s = new_state b in
    b.eps_edges <- (entry, s) :: (s, exit_) :: b.eps_edges;
    let s2 = new_state b in
    build b inner s s2;
    b.eps_edges <- (s2, s) :: b.eps_edges
  | Plus inner ->
    (* One copy of [inner] with a back edge.  Building [inner] twice,
       as [Cat (inner, Star inner)], doubles the NFA per nested [+]. *)
    let s = new_state b in
    let s2 = new_state b in
    b.eps_edges <- (entry, s) :: (s2, s) :: (s2, exit_) :: b.eps_edges;
    build b inner s s2
  | Opt inner ->
    b.eps_edges <- (entry, exit_) :: b.eps_edges;
    build b inner entry exit_

let compile_nfa node =
  let b = { n_states = 0; edges = []; eps_edges = [] } in
  let start = new_state b in
  let accept = new_state b in
  build b node start accept;
  let char_edges = Array.make b.n_states [] in
  List.iter (fun (s, cs, t) -> char_edges.(s) <- (cs, t) :: char_edges.(s)) b.edges;
  let eps = Array.make b.n_states [] in
  List.iter (fun (s, t) -> eps.(s) <- t :: eps.(s)) b.eps_edges;
  (char_edges, eps, start, accept, b.n_states)

(* --- lazy DFA ----------------------------------------------------------- *)

(* Matching runs the NFA through a lazily built DFA (Cox, "Regular
   Expression Matching Can Be Simple And Fast"; the RE2 design).  A DFA
   state is an epsilon-closed set of NFA states.  Its 256-entry
   transition row starts unknown, and each entry is filled the first
   time that byte is read in that state, so once the states an input
   visits exist, matching costs one array load per byte and allocates
   nothing.  A DFA spends at most [dfa_budget] bytes on its states; an
   input that needs a state past the budget is matched by the NFA
   simulation instead, which keeps every match linear in the input and
   bounds a pattern's memory whatever its length. *)

let dfa_budget = 128 * 1024

(* A state's row (256 words), its membership key (a byte per NFA state)
   and about 16 words of headers, record and index entry. *)
let state_bytes ~n_states = n_states + (Sys.word_size / 8 * (256 + 16))

(* Row entries are a state index or [unknown]; [transition] returns
   [overflow] when the next state does not fit the budget. *)
let unknown = -1
let overflow = -2

type dstate = {
  members : string;  (* byte q is nonzero iff NFA state q is in the set *)
  accepting : bool;
  dead : bool;  (* the empty set *)
  row : int array;  (* byte -> state, [unknown] until first read *)
}

type dfa = {
  inject_start : bool;
      (* unanchored search: the start state re-enters after every byte,
         as in the NFA simulation *)
  index : (string, int) Hashtbl.t;  (* [members] -> state *)
  mutable states : dstate array;  (* state 0 is the start state *)
  mutable count : int;
  mutable bytes : int;  (* [count] states of [state_bytes] each *)
}

type t = {
  source : string;
  char_edges : (charset * int) list array;
  eps : int list array;
  start : int;
  accept : int;
  n_states : int;
  anchored_start : bool;
  anchored_end : bool;
  mutable search_dfa : dfa option;  (* injects the start state; built on first use *)
  mutable anchored_dfa : dfa option;  (* for [^] patterns and [matches_exact] *)
}

let compile_fresh pattern =
  let anchored_start = String.length pattern > 0 && pattern.[0] = '^' in
  let anchored_end =
    (* A final [$] is an anchor unless it is escaped, i.e. unless an odd
       number of backslashes precede it. *)
    let rec backslashes i = if i >= 0 && pattern.[i] = '\\' then 1 + backslashes (i - 1) else 0 in
    let n = String.length pattern in
    n > 0 && pattern.[n - 1] = '$' && backslashes (n - 2) mod 2 = 0
  in
  let core =
    let lo = if anchored_start then 1 else 0 in
    let hi = String.length pattern - if anchored_end then 1 else 0 in
    String.sub pattern lo (max 0 (hi - lo))
  in
  let st = { pattern = core; pos = 0 } in
  let ast = parse_alt st in
  if st.pos <> String.length core then raise (Parse_error "trailing garbage (unbalanced ')'?)");
  let char_edges, eps, start, accept, n_states = compile_nfa ast in
  {
    source = pattern;
    char_edges;
    eps;
    start;
    accept;
    n_states;
    anchored_start;
    anchored_end;
    search_dfa = None;
    anchored_dfa = None;
  }

(* --- per-domain compile cache ------------------------------------------- *)

(* Matching mutates a [t]'s DFAs, so a [t] never crosses domains: each
   domain keeps its own table.  It keeps only successful compiles of
   small patterns: at most [max_cached_length] bytes, compiling to at
   most [max_cached_states] NFA states (nested [+] copies its operand,
   so a short pattern can still build a large NFA).  The table is
   emptied when it holds [cache_capacity] patterns.  A domain therefore
   retains at most that many small NFAs, each with two DFAs of at most
   [dfa_budget] bytes; any other pattern compiles afresh on every call. *)
let cache_capacity = 16
let max_cached_length = 256
let max_cached_states = 1024

let cache : (string, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let compile pattern =
  if String.length pattern > max_cached_length then compile_fresh pattern
  else begin
    let table = Domain.DLS.get cache in
    match Hashtbl.find_opt table pattern with
    | Some t -> t
    | None ->
      let t = compile_fresh pattern in
      if t.n_states <= max_cached_states then begin
        if Hashtbl.length table >= cache_capacity then Hashtbl.reset table;
        Hashtbl.add table pattern t
      end;
      t
  end

let source t = t.source

(* Epsilon-closure into a boolean state set. *)
let closure t set =
  let stack = ref [] in
  Array.iteri (fun s in_set -> if in_set then stack := s :: !stack) set;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      List.iter
        (fun target ->
          if not set.(target) then begin
            set.(target) <- true;
            stack := target :: !stack
          end)
        t.eps.(s)
  done

let run t input ~anchored_start ~anchored_end =
  let current = Array.make t.n_states false in
  current.(t.start) <- true;
  closure t current;
  let accepted = ref (current.(t.accept) && (anchored_end = false || String.length input = 0)) in
  (* When the search is unanchored at the start we re-inject the start
     state before every character, which is the ".*" prefix trick. *)
  let next = Array.make t.n_states false in
  let n = String.length input in
  let i = ref 0 in
  while (not !accepted) && !i < n do
    let c = input.[!i] in
    Array.fill next 0 t.n_states false;
    Array.iteri
      (fun s in_set ->
        if in_set then
          List.iter (fun (cs, target) -> if set_mem cs c then next.(target) <- true) t.char_edges.(s))
      current;
    if not anchored_start then next.(t.start) <- true;
    closure t next;
    Array.blit next 0 current 0 t.n_states;
    incr i;
    if current.(t.accept) then
      if anchored_end then begin
        if !i = n then accepted := true
        (* else: keep going, may accept again exactly at the end *)
      end
      else accepted := true
  done;
  (* Anchored-end acceptance is only valid after the last character. *)
  if (not !accepted) && anchored_end then accepted := current.(t.accept) && !i = n;
  !accepted

(* Adds [s] and its epsilon closure to the membership bytes. *)
let mark t members s =
  let rec go = function
    | [] -> ()
    | s :: rest ->
      if Bytes.get members s <> '\000' then go rest
      else begin
        Bytes.set members s '\001';
        go (List.rev_append t.eps.(s) rest)
      end
  in
  go [ s ]

(* The state for an epsilon-closed NFA-state set, built if new;
   [overflow] when it does not fit the budget.  [members] is not
   mutated after. *)
let intern t d members =
  let key = Bytes.unsafe_to_string members in
  match Hashtbl.find_opt d.index key with
  | Some s -> s
  | None when d.bytes + state_bytes ~n_states:t.n_states > dfa_budget -> overflow
  | None ->
    let st =
      {
        members = key;
        accepting = key.[t.accept] <> '\000';
        dead = not (String.contains key '\001');
        row = Array.make 256 unknown;
      }
    in
    if d.count = Array.length d.states then begin
      let grown = Array.make (max 8 (2 * d.count)) st in
      Array.blit d.states 0 grown 0 d.count;
      d.states <- grown
    end;
    let s = d.count in
    d.states.(s) <- st;
    d.count <- s + 1;
    d.bytes <- d.bytes + state_bytes ~n_states:t.n_states;
    Hashtbl.add d.index key s;
    s

(* Without room for even the start state, [count] stays 0 and every
   input takes the NFA. *)
let new_dfa t ~inject_start =
  let d = { inject_start; index = Hashtbl.create 16; states = [||]; count = 0; bytes = 0 } in
  let members = Bytes.make t.n_states '\000' in
  mark t members t.start;
  ignore (intern t d members : int);
  d

(* Fills the row entry of state [s] for byte [c]. *)
let transition t d s c =
  let from = d.states.(s).members in
  let members = Bytes.make t.n_states '\000' in
  for q = 0 to t.n_states - 1 do
    if String.unsafe_get from q <> '\000' then
      List.iter (fun (cs, target) -> if set_mem cs c then mark t members target) t.char_edges.(q)
  done;
  if d.inject_start then mark t members t.start;
  let next = intern t d members in
  if next <> overflow then d.states.(s).row.(Char.code c) <- next;
  next

let nfa_search t d input ~anchored_end =
  run t input ~anchored_start:(not d.inject_start) ~anchored_end

(* Same acceptance rule as [run]: without an end anchor the first
   accepting state decides; with one, only the state after the last
   byte counts. *)
let rec scan t d input ~anchored_end s i =
  if i = String.length input then anchored_end && d.states.(s).accepting
  else begin
    let c = String.unsafe_get input i in
    let next =
      let next = d.states.(s).row.(Char.code c) in
      if next <> unknown then next else transition t d s c
    in
    if next = overflow then nfa_search t d input ~anchored_end
    else begin
      let st = d.states.(next) in
      if st.accepting && not anchored_end then true
      else if st.dead then false
      else scan t d input ~anchored_end next (i + 1)
    end
  end

let search t d input ~anchored_end =
  if d.count = 0 then nfa_search t d input ~anchored_end
  else (d.states.(0).accepting && not anchored_end) || scan t d input ~anchored_end 0 0

let search_dfa t =
  match t.search_dfa with
  | Some d -> d
  | None ->
    let d = new_dfa t ~inject_start:true in
    t.search_dfa <- Some d;
    d

let anchored_dfa t =
  match t.anchored_dfa with
  | Some d -> d
  | None ->
    let d = new_dfa t ~inject_start:false in
    t.anchored_dfa <- Some d;
    d

let matches t input =
  let d = if t.anchored_start then anchored_dfa t else search_dfa t in
  search t d input ~anchored_end:t.anchored_end

let matches_exact t input = search t (anchored_dfa t) input ~anchored_end:true

let dfa_sum f t =
  let get = function Some d -> f d | None -> 0 in
  get t.search_dfa + get t.anchored_dfa

let dfa_states = dfa_sum (fun d -> d.count)
let dfa_bytes = dfa_sum (fun d -> d.bytes)

module Nfa = struct
  let matches t input = run t input ~anchored_start:t.anchored_start ~anchored_end:t.anchored_end
  let matches_exact t input = run t input ~anchored_start:true ~anchored_end:true
end
