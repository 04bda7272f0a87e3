(* Tests for the content-store substrate: the regex engine, values,
   documents, the query language and evaluator, the codec and the
   digests over it,
   the versioned store, op log and the auditor's re-execution memo. *)

open Secrep_store
module Prng = Secrep_crypto.Prng

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- Regex ---------------- *)

let m pattern input = Regex.matches (Regex.compile pattern) input

let test_regex_literals () =
  check bool_t "substring found" true (m "ell" "hello");
  check bool_t "absent" false (m "wor" "hello");
  check bool_t "empty pattern matches anything" true (m "" "hello");
  check bool_t "empty input, empty pattern" true (m "" "")

let test_regex_dot_star_plus_opt () =
  check bool_t "dot" true (m "h.llo" "hello");
  check bool_t "dot needs a char" false (m "h.llo" "hllo");
  check bool_t "star zero" true (m "ab*c" "ac");
  check bool_t "star many" true (m "ab*c" "abbbbc");
  check bool_t "plus needs one" false (m "ab+c" "ac");
  check bool_t "plus many" true (m "ab+c" "abbc");
  check bool_t "opt present" true (m "colou?r" "colour");
  check bool_t "opt absent" true (m "colou?r" "color");
  check bool_t "dotstar bridges" true (m "a.*z" "a-------z")

let test_regex_classes () =
  check bool_t "simple class" true (m "[abc]at" "bat");
  check bool_t "class miss" false (m "[abc]at" "rat");
  check bool_t "range" true (m "[a-z]+" "hello");
  check bool_t "digit range" true (m "[0-9]+" "abc123");
  check bool_t "negated" true (m "[^0-9]" "a");
  check bool_t "negated miss" false (m "^[^0-9]+$" "123");
  check bool_t "class with dash last" true (m "[a-]x" "-x");
  check bool_t "escaped bracket in class" true (m "[\\]]" "]")

let test_regex_alternation_groups () =
  check bool_t "alt left" true (m "cat|dog" "a cat here");
  check bool_t "alt right" true (m "cat|dog" "a dog here");
  check bool_t "alt miss" false (m "^(cat|dog)$" "cow");
  check bool_t "group star" true (m "(ab)+" "ababab");
  check bool_t "nested" true (m "a(b(c|d))*e" "abcbde");
  check bool_t "group alt anchored" true (m "^(foo|ba(r|z))$" "baz")

let test_regex_anchors () =
  check bool_t "start anchor hit" true (m "^hel" "hello");
  check bool_t "start anchor miss" false (m "^ell" "hello");
  check bool_t "end anchor hit" true (m "llo$" "hello");
  check bool_t "end anchor miss" false (m "hel$" "hello");
  check bool_t "both anchors exact" true (m "^hello$" "hello");
  check bool_t "both anchors longer" false (m "^hello$" "hello!");
  check bool_t "empty exact" true (m "^$" "");
  check bool_t "empty exact nonempty" false (m "^$" "x")

let test_regex_escapes () =
  check bool_t "escaped dot" true (m "a\\.b" "a.b");
  check bool_t "escaped dot not any" false (m "^a\\.b$" "axb");
  check bool_t "\\d" true (m "\\d+" "abc42");
  check bool_t "\\w" true (m "^\\w+$" "hello_42");
  check bool_t "\\s" true (m "a\\sb" "a b");
  check bool_t "escaped star" true (m "2\\*3" "2*3")

let test_regex_parse_errors () =
  let fails pattern =
    match Regex.compile pattern with
    | (_ : Regex.t) -> false
    | exception Regex.Parse_error _ -> true
  in
  check bool_t "unbalanced (" true (fails "(ab");
  check bool_t "unbalanced )" true (fails "ab)");
  check bool_t "dangling *" true (fails "*ab");
  check bool_t "unterminated class" true (fails "[abc");
  check bool_t "dangling backslash" true (fails "ab\\")

let test_regex_matches_exact () =
  let r = Regex.compile "ab+" in
  check bool_t "exact hit" true (Regex.matches_exact r "abbb");
  check bool_t "exact miss (prefix junk)" false (Regex.matches_exact r "xabbb");
  check bool_t "exact miss (suffix junk)" false (Regex.matches_exact r "abbbx")

let test_regex_no_blowup () =
  (* (a+)+b against aaaa...a! is exponential for backtrackers; the NFA
     simulation must stay linear. *)
  let r = Regex.compile "(a+)+b" in
  let input = String.make 50 'a' ^ "!" in
  let t0 = Unix.gettimeofday () in
  check bool_t "no match" false (Regex.matches r input);
  check bool_t "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let test_regex_source () =
  check string_t "source preserved" "^a(b|c)$" (Regex.source (Regex.compile "^a(b|c)$"))

(* Property: compare the NFA engine against a naive reference matcher
   over a structurally generated pattern AST (alphabet {a,b}). *)
type rx = Chr of char | Seq of rx * rx | Alt of rx * rx | Star of rx

let rec rx_to_string = function
  | Chr c -> String.make 1 c
  | Seq (a, b) -> rx_to_string a ^ rx_to_string b
  | Alt (a, b) -> "(" ^ rx_to_string a ^ "|" ^ rx_to_string b ^ ")"
  | Star a -> "(" ^ rx_to_string a ^ ")*"

(* [ref_match_exact rx s]: does rx match all of s?  For each
   sub-pattern and start offset it computes the offsets where a match
   can end, memoised, so nested stars stay polynomial; a backtracking
   reference takes exponential time on them. *)
let ref_match_exact rx s =
  let n = String.length s in
  let memo = Hashtbl.create 64 in
  let rec ends rx i =
    match Hashtbl.find_opt memo (rx, i) with
    | Some e -> e
    | None ->
      let e =
        match rx with
        | Chr c -> if i < n && s.[i] = c then [ i + 1 ] else []
        | Seq (a, b) -> List.sort_uniq compare (List.concat_map (fun j -> ends b j) (ends a i))
        | Alt (a, b) -> List.sort_uniq compare (ends a i @ ends b i)
        | Star a ->
          let seen = Array.make (n + 1) false in
          let rec visit j =
            if not seen.(j) then begin
              seen.(j) <- true;
              List.iter visit (ends a j)
            end
          in
          visit i;
          List.filter (fun j -> seen.(j)) (List.init (n + 1) Fun.id)
      in
      Hashtbl.add memo (rx, i) e;
      e
  in
  List.mem n (ends rx 0)

let gen_rx =
  QCheck2.Gen.(
    sized @@ fix (fun self size ->
        if size = 0 then map (fun b -> Chr (if b then 'a' else 'b')) bool
        else
          oneof
            [
              map (fun b -> Chr (if b then 'a' else 'b')) bool;
              map2 (fun a b -> Seq (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Alt (a, b)) (self (size / 2)) (self (size / 2));
              map (fun a -> Star a) (self (size / 2));
            ]))

let gen_ab_string =
  QCheck2.Gen.(map (fun l -> String.concat "" (List.map (fun b -> if b then "a" else "b") l))
                 (list_size (int_bound 8) bool))

let prop_regex_vs_reference =
  qtest ~count:400 "regex: NFA agrees with a naive reference matcher"
    QCheck2.Gen.(pair gen_rx gen_ab_string)
    (fun (rx, s) ->
      let pattern = rx_to_string rx in
      Regex.matches_exact (Regex.compile pattern) s = ref_match_exact rx s)

(* The lazy DFA against the NFA simulation it replaced, which is kept as
   [Regex.Nfa]: random patterns over the whole grammar (classes,
   negation, escapes, [.], repetition, alternation, both anchors),
   matched against inputs drawn from a wider alphabet than any pattern
   mentions.  Each compiled pattern sees several inputs, so later
   inputs run over DFA states earlier ones built. *)
let gen_pattern =
  let open QCheck2.Gen in
  let atom =
    oneofl
      [ "a"; "b"; "c"; "."; "[ab]"; "[a-c]"; "[^a]"; "[^b-c]"; "\\d"; "\\w"; "\\s"; "\\.";
        "\\$"; "\\\\"; "\\*"; "$"; "^"; "1" ]
  in
  let body =
    sized @@ fix (fun self size ->
        if size = 0 then atom
        else
          frequency
            [
              (3, atom);
              (3, map2 ( ^ ) (self (size / 2)) (self (size / 2)));
              (2, map2 (fun a b -> "(" ^ a ^ "|" ^ b ^ ")") (self (size / 2)) (self (size / 2)));
              ( 2,
                map2 (fun a op -> "(" ^ a ^ ")" ^ op) (self (size / 2)) (oneofl [ "*"; "+"; "?" ]) );
            ])
  in
  map3 (fun start b end_ -> (if start then "^" else "") ^ b ^ if end_ then "$" else "") bool body bool

let gen_subject =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'd'; '1'; ' '; '.'; '$'; '^'; '\\'; '*'; 'Z' ])
      (int_bound 12))

let prop_dfa_vs_nfa =
  qtest ~count:500 "regex: lazy DFA agrees with the NFA on the full grammar"
    QCheck2.Gen.(pair gen_pattern (list_size (int_range 1 8) gen_subject))
    (fun (pattern, inputs) ->
      match Regex.compile pattern with
      | exception Regex.Parse_error _ -> QCheck2.assume_fail ()
      | r ->
        List.for_all
          (fun s ->
            Regex.matches r s = Regex.Nfa.matches r s
            && Regex.matches_exact r s = Regex.Nfa.matches_exact r s)
          inputs)

(* "The 10th byte from the end is an a" needs 2^10 DFA states to scan,
   and random input visits most of them, far past what the budget
   holds, so matching falls back to the NFA mid-input. *)
let test_regex_dfa_budget () =
  let tail = String.concat "" (List.init 9 (fun _ -> "(a|b)")) in
  let r = Regex.compile ("a" ^ tail ^ "$") in
  let exact = Regex.compile ("(a|b)*a" ^ tail) in
  let g = Prng.create ~seed:5L in
  let noise () = String.init 3000 (fun _ -> if Prng.bool g then 'a' else 'b') in
  List.iter
    (fun (label, input, expected) ->
      check bool_t (label ^ ": search") expected (Regex.matches r input);
      check bool_t (label ^ ": NFA search") expected (Regex.Nfa.matches r input);
      check bool_t (label ^ ": exact") expected (Regex.matches_exact exact input);
      check bool_t (label ^ ": NFA exact") expected (Regex.Nfa.matches_exact exact input))
    [
      ("hit", noise () ^ "a" ^ String.make 9 'b', true);
      ("miss", noise () ^ "b" ^ String.make 9 'a', false);
      ("short hit", "a" ^ String.make 9 'b', true);
      ("too short", String.make 9 'a', false);
    ];
  List.iter
    (fun (label, re) ->
      check bool_t (label ^ " DFA within its budget") true (Regex.dfa_bytes re <= Regex.dfa_budget);
      (* One more state of this small pattern would cost under 4 KB. *)
      check bool_t (label ^ " DFA is full") true (Regex.dfa_bytes re > Regex.dfa_budget - 4096);
      check bool_t (label ^ " DFA stopped short of 2^10 states") true (Regex.dfa_states re < 1024))
    [ ("search", r); ("anchored", exact) ]

(* A DFA state also costs a byte per NFA state, so a long pattern fits
   fewer states in the budget, and one whose start state alone is past
   the budget matches by the NFA throughout. *)
let test_regex_dfa_budget_long_pattern () =
  let g = Prng.create ~seed:9L in
  let letters ~alphabet n =
    String.init n (fun _ -> Char.chr (Char.code 'a' + Prng.int g alphabet))
  in
  let words = "(" ^ String.concat "|" (List.init 400 (fun _ -> letters ~alphabet:4 8)) ^ ")" in
  (* Patterns this long are not cached, so these are two values. *)
  let search = Regex.compile words and exact = Regex.compile words in
  List.iter
    (fun s ->
      check bool_t "search agrees with the NFA" (Regex.Nfa.matches search s)
        (Regex.matches search s);
      check bool_t "exact agrees with the NFA" (Regex.Nfa.matches_exact exact s)
        (Regex.matches_exact exact s))
    (List.init 300 (fun i -> letters ~alphabet:5 (if i mod 3 = 0 then 8 else 40)));
  List.iter
    (fun (label, re) ->
      check bool_t (label ^ " DFA built states") true (Regex.dfa_states re > 0);
      check bool_t (label ^ " DFA within its budget") true (Regex.dfa_bytes re <= Regex.dfa_budget))
    [ ("search", search); ("anchored", exact) ];
  (* A 133,000-byte literal needs about 133,000 NFA states, so its start
     state alone (a byte per NFA state plus 2,176) does not fit the
     budget; the [a+] branch gives it short matches. *)
  let huge = Regex.compile (letters ~alphabet:4 133_000 ^ "|a+") in
  check bool_t "huge pattern finds a match" true (Regex.matches huge "xaaay");
  check bool_t "and rejects" false (Regex.matches huge "xyz");
  check bool_t "and matches exactly" true (Regex.matches_exact huge "aaaa");
  check int_t "without a DFA state" 0 (Regex.dfa_states huge)

(* [+] builds one copy of its operand, so stacked and nested [+] stay
   small enough for the per-domain cache (at most 1,024 NFA states);
   a copy of the operand per [+] would build about 196 k states here. *)
let test_regex_plus_linear () =
  let nested = List.fold_left (fun p _ -> "(" ^ p ^ ")+") "a" (List.init 16 Fun.id) in
  List.iter
    (fun pattern ->
      check bool_t (pattern ^ " is cached") true (Regex.compile pattern == Regex.compile pattern);
      let re = Regex.compile pattern in
      List.iter
        (fun s ->
          check bool_t ("search " ^ s) (Regex.Nfa.matches re s) (Regex.matches re s);
          check bool_t ("exact " ^ s) (Regex.Nfa.matches_exact re s) (Regex.matches_exact re s))
        [ ""; "a"; "aaaa"; "xaay"; "b" ])
    [ "a" ^ String.make 16 '+'; nested ]

(* [Regex.compile] caches per domain: a repeat is the same value,
   malformed patterns are not cached, a full table is emptied, and each
   domain has its own table. *)
let test_regex_compile_cache () =
  let a = Regex.compile "model [0-9]+" in
  check bool_t "a repeat returns the cached matcher" true (Regex.compile "model [0-9]+" == a);
  check bool_t "which still matches" true (Regex.matches a "the model 42 lamp");
  check bool_t "and still rejects" false (Regex.matches a "model x");
  let malformed i =
    match Regex.compile (Printf.sprintf "((%d(" i) with
    | exception Regex.Parse_error _ -> true
    | (_ : Regex.t) -> false
  in
  check bool_t "malformed patterns raise" true (List.for_all malformed (List.init 1000 Fun.id));
  (* Had those filled the table, it would have been emptied. *)
  check bool_t "and are not cached" true (Regex.compile "model [0-9]+" == a);
  let long = String.make 300 'a' in
  check bool_t "a long pattern compiles afresh" true (Regex.compile long != Regex.compile long);
  let other, recompiled =
    Domain.join
      (Domain.spawn (fun () ->
           let b = Regex.compile "model [0-9]+" in
           for i = 1 to 1000 do
             ignore (Regex.compile (Printf.sprintf "p%d" i) : Regex.t)
           done;
           (b, Regex.compile "model [0-9]+" != b)))
  in
  check bool_t "another domain compiles its own" true (other != a);
  check bool_t "a full table is emptied" true recompiled

(* ---------------- Value ---------------- *)

let test_value_compare_order () =
  let open Value in
  check bool_t "null < bool" true (compare Null (Bool false) < 0);
  check bool_t "int by value" true (compare (Int 1) (Int 2) < 0);
  check bool_t "string order" true (compare (String "a") (String "b") < 0);
  check bool_t "list lexicographic" true (compare (List [ Int 1 ]) (List [ Int 1; Int 2 ]) < 0);
  check bool_t "equal lists" true (equal (List [ Int 1 ]) (List [ Int 1 ]))

let test_value_numeric () =
  let open Value in
  check bool_t "int+int" true (equal (Option.get (add_numeric (Int 2) (Int 3))) (Int 5));
  check bool_t "int+float widens" true
    (equal (Option.get (add_numeric (Int 2) (Float 0.5))) (Float 2.5));
  check bool_t "string rejects" true (add_numeric (String "x") (Int 1) = None);
  check bool_t "as_float widens int" true (as_float (Int 2) = Some 2.0);
  check bool_t "as_int strict" true (as_int (Float 2.0) = None)

let gen_value =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              return Value.Null;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) small_int;
              map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
              map (fun s -> Value.String s) (string_size (int_bound 10));
            ]
        else map (fun l -> Value.List l) (list_size (int_bound 4) (self (n / 2)))))

let prop_value_compare_total =
  qtest "value: compare is antisymmetric" QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_value_equal_refl =
  qtest "value: equal is reflexive" gen_value (fun v -> Value.equal v v)

(* ---------------- Document ---------------- *)

let test_document_ops () =
  let d = Document.of_fields [ ("b", Value.Int 2); ("a", Value.Int 1) ] in
  check int_t "field count" 2 (Document.field_count d);
  check bool_t "get" true (Document.get d "a" = Some (Value.Int 1));
  check bool_t "mem" true (Document.mem d "b");
  check bool_t "sorted fields" true (List.map fst (Document.fields d) = [ "a"; "b" ]);
  let d2 = Document.set d "c" Value.Null in
  check int_t "set adds" 3 (Document.field_count d2);
  check int_t "original untouched" 2 (Document.field_count d);
  let d3 = Document.remove d2 "a" in
  check bool_t "removed" false (Document.mem d3 "a");
  check bool_t "later binding wins" true
    (Document.get (Document.of_fields [ ("x", Value.Int 1); ("x", Value.Int 2) ]) "x"
    = Some (Value.Int 2))

(* ---------------- Query ---------------- *)

let test_query_validate () =
  check bool_t "good point read" true (Query.validate (Query.point_read "k") = Ok ());
  check bool_t "good grep" true (Query.validate (Query.grep "a+b") = Ok ());
  check bool_t "bad grep regex" true
    (match Query.validate (Query.grep "(((") with Error _ -> true | Ok () -> false);
  check bool_t "bad predicate regex" true
    (match
       Query.validate
         (Query.Select
            {
              from = Query.All;
              where = Query.Field_matches ("f", "[z-a]");
              project = None;
              limit = None;
            })
     with
    | Error _ -> true
    | Ok () -> false);
  check bool_t "negative limit" true
    (match
       Query.validate
         (Query.Select { from = Query.All; where = Query.True; project = None; limit = Some (-1) })
     with
    | Error _ -> true
    | Ok () -> false)

let test_query_cost_class () =
  check bool_t "point" true (Query.cost_class (Query.point_read "k") = `Point);
  check bool_t "prefix scan" true
    (Query.cost_class
       (Query.Select { from = Query.Prefix "p"; where = Query.True; project = None; limit = None })
    = `Scan);
  check bool_t "grep all is full scan" true (Query.cost_class (Query.grep "x") = `Full_scan);
  check bool_t "grep under prefix is scan" true
    (Query.cost_class (Query.grep ~under:"p" "x") = `Scan);
  check bool_t "is_point_read" true (Query.is_point_read (Query.point_read "k"))

(* ---------------- Store + eval fixtures ---------------- *)

let doc fields = Document.of_fields fields

let fixture_store () =
  let s = Store.create () in
  Store.apply s
    (Oplog.Put
       {
         key = "product:001";
         doc =
           doc
             [
               ("name", Value.String "red lamp");
               ("category", Value.String "garden");
               ("price", Value.Float 10.0);
               ("stock", Value.Int 5);
             ];
       });
  Store.apply s
    (Oplog.Put
       {
         key = "product:002";
         doc =
           doc
             [
               ("name", Value.String "blue router");
               ("category", Value.String "electronics");
               ("price", Value.Float 99.0);
               ("stock", Value.Int 2);
             ];
       });
  Store.apply s
    (Oplog.Put
       {
         key = "product:003";
         doc =
           doc
             [
               ("name", Value.String "red kettle");
               ("category", Value.String "kitchen");
               ("price", Value.Float 25.0);
               ("stock", Value.Int 0);
             ];
       });
  Store.apply s
    (Oplog.Put { key = "vendor:acme"; doc = doc [ ("name", Value.String "ACME Corp") ] });
  s

let rows_of result =
  match result with Query_result.Rows rows -> rows | _ -> Alcotest.fail "expected rows"

let agg_of result =
  match result with Query_result.Agg v -> v | _ -> Alcotest.fail "expected aggregate"

(* ---------------- Store ---------------- *)

let test_store_versioning () =
  let s = fixture_store () in
  check int_t "4 writes" 4 (Store.version s);
  check int_t "4 keys" 4 (Store.key_count s);
  Store.apply s (Oplog.Delete { key = "vendor:acme" });
  check int_t "version bumps on delete" 5 (Store.version s);
  check int_t "3 keys" 3 (Store.key_count s);
  Store.apply s (Oplog.Delete { key = "nonexistent" });
  check int_t "no-op delete still bumps" 6 (Store.version s)

let test_store_set_remove_field () =
  let s = fixture_store () in
  Store.apply s (Oplog.Set_field { key = "product:001"; field = "price"; value = Value.Float 12.0 });
  check bool_t "field updated" true
    (Document.get (Option.get (Store.get s "product:001")) "price" = Some (Value.Float 12.0));
  Store.apply s (Oplog.Remove_field { key = "product:001"; field = "stock" });
  check bool_t "field removed" false
    (Document.mem (Option.get (Store.get s "product:001")) "stock");
  Store.apply s (Oplog.Set_field { key = "fresh"; field = "a"; value = Value.Int 1 });
  check bool_t "set_field creates doc" true (Store.mem s "fresh")

let test_store_apply_entry_gap () =
  let s = fixture_store () in
  let v = Store.version s in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument
       (Printf.sprintf "Store.apply_entry: version gap (store at %d, entry %d)" v (v + 2)))
    (fun () ->
      Store.apply_entry s { Oplog.version = v + 2; op = Oplog.Delete { key = "x" } })

let test_store_fold_selector () =
  let s = fixture_store () in
  let keys sel =
    List.rev (Store.fold_selector s sel ~init:[] ~f:(fun acc k _ -> k :: acc))
  in
  check (Alcotest.list string_t) "all"
    [ "product:001"; "product:002"; "product:003"; "vendor:acme" ]
    (keys Query.All);
  check (Alcotest.list string_t) "prefix" [ "product:001"; "product:002"; "product:003" ]
    (keys (Query.Prefix "product:"));
  check (Alcotest.list string_t) "range inclusive" [ "product:001"; "product:002" ]
    (keys (Query.Key_range { lo = "product:001"; hi = "product:002" }));
  check (Alcotest.list string_t) "key" [ "product:002" ] (keys (Query.Key "product:002"));
  check (Alcotest.list string_t) "missing key" [] (keys (Query.Key "nope"))

let test_store_snapshot_restore () =
  let s = fixture_store () in
  let snap = Store.snapshot s in
  Store.apply s (Oplog.Delete { key = "product:001" });
  Store.apply s (Oplog.Delete { key = "product:002" });
  check int_t "mutated" 2 (Store.key_count s - 0 |> fun _ -> Store.key_count s);
  Store.restore s snap;
  check int_t "restored keys" 4 (Store.key_count s);
  check int_t "restored version" 4 (Store.version s)

let test_store_serialization () =
  let s = fixture_store () in
  let bytes = Store.to_bytes s in
  (match Store.of_bytes bytes with
  | Ok s' ->
    check int_t "version preserved" (Store.version s) (Store.version s');
    check int_t "keys preserved" (Store.key_count s) (Store.key_count s');
    check string_t "content hash identical"
      (Secrep_crypto.Hex.encode (Store.content_hash s))
      (Secrep_crypto.Hex.encode (Store.content_hash s'))
  | Error msg -> Alcotest.fail msg);
  check bool_t "garbage rejected" true
    (match Store.of_bytes "not a store" with Error _ -> true | Ok _ -> false);
  check bool_t "truncation rejected" true
    (match Store.of_bytes (String.sub bytes 0 (String.length bytes / 2)) with
    | Error _ -> true
    | Ok _ -> false)

let test_store_content_hash () =
  let a = fixture_store () and b = fixture_store () in
  check string_t "replicas agree" (Secrep_crypto.Hex.encode (Store.content_hash a))
    (Secrep_crypto.Hex.encode (Store.content_hash b));
  Store.apply b (Oplog.Delete { key = "vendor:acme" });
  check bool_t "divergence changes hash" false
    (String.equal (Store.content_hash a) (Store.content_hash b))

(* ---------------- Oplog ---------------- *)

let test_oplog () =
  let log = Oplog.create () in
  check int_t "empty last" 0 (Oplog.last_version log);
  Oplog.append log { Oplog.version = 1; op = Oplog.Delete { key = "a" } };
  Oplog.append log { Oplog.version = 2; op = Oplog.Delete { key = "b" } };
  Oplog.append log { Oplog.version = 5; op = Oplog.Delete { key = "c" } };
  check int_t "length" 3 (Oplog.length log);
  check int_t "last" 5 (Oplog.last_version log);
  check int_t "after 1" 2 (List.length (Oplog.entries_after log 1));
  check int_t "after 5" 0 (List.length (Oplog.entries_after log 5));
  check bool_t "ordered oldest first" true
    (List.map (fun e -> e.Oplog.version) (Oplog.entries_after log 0) = [ 1; 2; 5 ]);
  Alcotest.check_raises "non-monotonic"
    (Invalid_argument "Oplog.append: version must be strictly increasing") (fun () ->
      Oplog.append log { Oplog.version = 4; op = Oplog.Delete { key = "d" } })

(* ---------------- Query_eval ---------------- *)

let test_eval_select_where () =
  let s = fixture_store () in
  let q =
    Query.Select
      {
        from = Query.Prefix "product:";
        where = Query.Field_equals ("category", Value.String "garden");
        project = None;
        limit = None;
      }
  in
  let { Query_eval.result; scanned } = Query_eval.execute_exn s q in
  check int_t "scanned all products" 3 scanned;
  check (Alcotest.list string_t) "matched" [ "product:001" ] (List.map fst (rows_of result))

let test_eval_comparisons () =
  let s = fixture_store () in
  let run where =
    let { Query_eval.result; _ } =
      Query_eval.execute_exn s
        (Query.Select { from = Query.Prefix "product:"; where; project = None; limit = None })
    in
    List.map fst (rows_of result)
  in
  check (Alcotest.list string_t) "less" [ "product:001" ]
    (run (Query.Field_less ("price", Value.Float 20.0)));
  check (Alcotest.list string_t) "greater" [ "product:002"; "product:003" ]
    (run (Query.Field_greater ("price", Value.Float 20.0)));
  check (Alcotest.list string_t) "and" [ "product:003" ]
    (run
       (Query.And
          ( Query.Field_greater ("price", Value.Float 20.0),
            Query.Field_equals ("stock", Value.Int 0) )));
  check (Alcotest.list string_t) "or" [ "product:001"; "product:003" ]
    (run
       (Query.Or
          ( Query.Field_equals ("category", Value.String "garden"),
            Query.Field_equals ("category", Value.String "kitchen") )));
  check (Alcotest.list string_t) "not" [ "product:002"; "product:003" ]
    (run (Query.Not (Query.Field_equals ("category", Value.String "garden"))));
  check (Alcotest.list string_t) "has_field all" [ "product:001"; "product:002"; "product:003" ]
    (run (Query.Has_field "price"));
  check (Alcotest.list string_t) "regex predicate" [ "product:001"; "product:003" ]
    (run (Query.Field_matches ("name", "^red")))

let test_eval_projection_limit () =
  let s = fixture_store () in
  let q =
    Query.Select
      {
        from = Query.Prefix "product:";
        where = Query.True;
        project = Some [ "price"; "ghost" ];
        limit = Some 2;
      }
  in
  let { Query_eval.result; _ } = Query_eval.execute_exn s q in
  let rows = rows_of result in
  check int_t "limited" 2 (List.length rows);
  List.iter
    (fun (_, d) ->
      check bool_t "only price kept" true (Document.mem d "price" && Document.field_count d = 1))
    rows

let test_eval_grep () =
  let s = fixture_store () in
  let { Query_eval.result; _ } = Query_eval.execute_exn s (Query.grep "red") in
  match result with
  | Query_result.Matches ms ->
    check int_t "two reds" 2 (List.length ms);
    List.iter (fun (_, field, _) -> check string_t "in name field" "name" field) ms
  | _ -> Alcotest.fail "expected matches"

let test_eval_aggregates () =
  let s = fixture_store () in
  let run agg =
    agg_of
      (Query_eval.execute_exn s
         (Query.Aggregate { from = Query.Prefix "product:"; where = Query.True; agg }))
        .Query_eval.result
  in
  check bool_t "count" true (Value.equal (run Query.Count) (Value.Int 3));
  check bool_t "sum" true (Value.equal (run (Query.Sum "price")) (Value.Float 134.0));
  check bool_t "min" true (Value.equal (run (Query.Min "price")) (Value.Float 10.0));
  check bool_t "max" true (Value.equal (run (Query.Max "stock")) (Value.Int 5));
  check bool_t "avg" true
    (match run (Query.Avg "price") with
    | Value.Float f -> Float.abs (f -. (134.0 /. 3.0)) < 1e-9
    | _ -> false)

let test_eval_aggregate_empty_and_missing () =
  let s = Store.create () in
  let run agg =
    agg_of
      (Query_eval.execute_exn s (Query.Aggregate { from = Query.All; where = Query.True; agg }))
        .Query_eval.result
  in
  check bool_t "count empty" true (Value.equal (run Query.Count) (Value.Int 0));
  check bool_t "sum empty is null" true (Value.equal (run (Query.Sum "x")) Value.Null);
  check bool_t "avg empty is null" true (Value.equal (run (Query.Avg "x")) Value.Null);
  let s2 = fixture_store () in
  let { Query_eval.result; _ } =
    Query_eval.execute_exn s2
      (Query.Aggregate { from = Query.Key "vendor:acme"; where = Query.True; agg = Query.Sum "price" })
  in
  check bool_t "missing field sums to null" true (Value.equal (agg_of result) Value.Null)

let test_eval_bad_query () =
  let s = fixture_store () in
  check bool_t "bad regex is Error" true
    (match Query_eval.execute s (Query.grep "(((") with Error _ -> true | Ok _ -> false)

let test_eval_deterministic_across_replicas () =
  let a = fixture_store () and b = fixture_store () in
  let queries =
    [
      Query.point_read "product:002";
      Query.grep "red";
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Sum "stock" };
      Query.Select
        { from = Query.Prefix "product:"; where = Query.Has_field "price"; project = None; limit = None };
    ]
  in
  List.iter
    (fun q ->
      let ra = (Query_eval.execute_exn a q).Query_eval.result in
      let rb = (Query_eval.execute_exn b q).Query_eval.result in
      check string_t "identical canonical digests"
        (Secrep_crypto.Hex.encode (Canonical.result_digest ra))
        (Secrep_crypto.Hex.encode (Canonical.result_digest rb)))
    queries

let test_eval_cost_seconds () =
  let c1 = Query_eval.cost_seconds ~scanned:0 ~cost_class:`Point ~per_doc:50e-6 in
  let c2 = Query_eval.cost_seconds ~scanned:1000 ~cost_class:`Full_scan ~per_doc:50e-6 in
  check bool_t "point cheap" true (c1 < 1e-4);
  check bool_t "scan pays per doc" true (c2 > 0.05)

(* ---------------- Canonical digests ---------------- *)

let test_canonical_distinguishes () =
  let open Query_result in
  let pairs =
    [
      (Rows [], Matches []);
      (Agg (Value.Int 1), Agg (Value.Float 1.0));
      (Agg (Value.String "1"), Agg (Value.Int 1));
      (Rows [ ("k", doc [ ("a", Value.Int 1) ]) ], Rows [ ("k", doc [ ("a", Value.Int 2) ]) ]);
      (Matches [ ("k", "f", "ab") ], Matches [ ("ka", "", "b") |> fun (a, b, c) -> (a, b, c) ]);
    ]
  in
  List.iter
    (fun (a, b) ->
      check bool_t "digests differ" false
        (String.equal (Canonical.result_digest a) (Canonical.result_digest b)))
    pairs

let test_canonical_all_query_forms_distinct () =
  (* Each syntactic query form must have a distinct canonical digest:
     the pledge binds "a copy of the request" and two different
     requests must never collide. *)
  let forms =
    [
      Query.point_read "k";
      Query.Select { from = Query.Key "k"; where = Query.True; project = Some []; limit = None };
      Query.Select { from = Query.Key "k"; where = Query.True; project = None; limit = Some 0 };
      Query.Select { from = Query.Key "k"; where = Query.True; project = None; limit = Some (-1) };
      Query.Select { from = Query.Prefix "k"; where = Query.True; project = None; limit = None };
      Query.Select
        { from = Query.Key_range { lo = "k"; hi = "k" }; where = Query.True; project = None; limit = None };
      Query.Select { from = Query.All; where = Query.True; project = None; limit = None };
      Query.Select
        { from = Query.All; where = Query.Has_field "k"; project = None; limit = None };
      Query.Select
        { from = Query.All; where = Query.Field_equals ("k", Value.Null); project = None; limit = None };
      Query.Select
        { from = Query.All; where = Query.Not Query.True; project = None; limit = None };
      Query.Select
        { from = Query.All; where = Query.And (Query.True, Query.True); project = None; limit = None };
      Query.Select
        { from = Query.All; where = Query.Or (Query.True, Query.True); project = None; limit = None };
      Query.grep "k";
      Query.grep ~under:"k" "k";
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Count };
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Sum "k" };
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Min "k" };
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Max "k" };
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Avg "k" };
    ]
  in
  let digests = List.map (fun q -> Secrep_crypto.Hex.encode (Canonical.query_digest q)) forms in
  check int_t "all digests distinct" (List.length forms)
    (List.length (List.sort_uniq String.compare digests))

let test_canonical_query_digest () =
  let q1 = Query.point_read "a" and q2 = Query.point_read "b" in
  check bool_t "query digests differ" false
    (String.equal (Canonical.query_digest q1) (Canonical.query_digest q2));
  check bool_t "same query same digest" true
    (String.equal (Canonical.query_digest q1) (Canonical.query_digest (Query.point_read "a")))

(* Digests hash Codec bytes, so Codec must be injective. *)
let prop_canonical_value_injective_ish =
  qtest ~count:300 "canonical: distinct values encode distinctly"
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      if Value.equal a b then String.equal (Codec.encode_value a) (Codec.encode_value b)
      else not (String.equal (Codec.encode_value a) (Codec.encode_value b)))

(* ---------------- Codec ---------------- *)

let gen_document =
  QCheck2.Gen.(
    map Document.of_fields
      (list_size (int_bound 6) (pair (string_size (int_bound 8)) gen_value)))

let gen_selector =
  QCheck2.Gen.(
    oneof
      [
        return Query.All;
        map (fun k -> Query.Key k) (string_size (int_bound 8));
        map (fun p -> Query.Prefix p) (string_size (int_bound 8));
        map2 (fun lo hi -> Query.Key_range { lo; hi }) (string_size (int_bound 8))
          (string_size (int_bound 8));
      ])

let gen_predicate =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Query.True;
              map2 (fun f v -> Query.Field_equals (f, v)) (string_size (int_bound 6)) gen_value;
              map2 (fun f v -> Query.Field_less (f, v)) (string_size (int_bound 6)) gen_value;
              map2
                (fun f p -> Query.Field_matches (f, p))
                (string_size (int_bound 6))
                (string_size (int_bound 6));
              map (fun f -> Query.Has_field f) (string_size (int_bound 6));
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun p -> Query.Not p) (self (n / 2));
              map2 (fun a b -> Query.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Query.Or (a, b)) (self (n / 2)) (self (n / 2));
            ]))

let gen_query =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (from, where) (project, limit) -> Query.Select { from; where; project; limit })
          (pair gen_selector gen_predicate)
          (pair
             (option (list_size (int_bound 4) (string_size (int_bound 6))))
             (option (int_range (-100) 100)));
        map2 (fun from pattern -> Query.Grep { from; pattern }) gen_selector
          (string_size (int_bound 8));
        map2
          (fun (from, where) agg -> Query.Aggregate { from; where; agg })
          (pair gen_selector gen_predicate)
          (oneof
             [
               return Query.Count;
               map (fun f -> Query.Sum f) (string_size (int_bound 6));
               map (fun f -> Query.Min f) (string_size (int_bound 6));
               map (fun f -> Query.Max f) (string_size (int_bound 6));
               map (fun f -> Query.Avg f) (string_size (int_bound 6));
             ]);
      ])

let prop_codec_value_roundtrip =
  qtest ~count:400 "codec: value roundtrip" gen_value (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let prop_codec_document_roundtrip =
  qtest ~count:300 "codec: document roundtrip" gen_document (fun d ->
      match Codec.decode_document (Codec.encode_document d) with
      | Ok d' -> Document.equal d d'
      | Error _ -> false)

let prop_codec_query_roundtrip =
  qtest ~count:300 "codec: query roundtrip" gen_query (fun q ->
      match Codec.decode_query (Codec.encode_query q) with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

let gen_result =
  QCheck2.Gen.(
    oneof
      [
        map (fun rows -> Query_result.Rows rows)
          (list_size (int_bound 5) (pair (string_size (int_bound 6)) gen_document));
        map (fun ms -> Query_result.Matches ms)
          (list_size (int_bound 5)
             (triple (string_size (int_bound 6)) (string_size (int_bound 6))
                (string_size (int_bound 6))));
        map (fun v -> Query_result.Agg v) gen_value;
      ])

(* The digests are SHA-1 over Codec's bytes: one format, hashed. *)
let prop_canonical_result_digest_is_codec =
  qtest ~count:200 "canonical: result digest hashes Codec bytes" gen_result (fun r ->
      String.equal (Canonical.result_digest r) (Secrep_crypto.Sha1.digest (Codec.encode_result r)))

let prop_canonical_query_digest_is_codec =
  qtest ~count:200 "canonical: query digest hashes Codec bytes" gen_query (fun q ->
      String.equal (Canonical.query_digest q) (Secrep_crypto.Sha1.digest (Codec.encode_query q)))

(* Pins the byte format that replicas hash and sign: a changed tag,
   field order or length prefix moves these answers. *)
let test_canonical_known_answers () =
  let q = Query.Select { from = Query.Key "k"; where = Query.True; project = None; limit = Some (-1) } in
  let r = Query_result.Rows [ ("k", doc [ ("b", Value.String "x"); ("a", Value.Int (-1)) ]) ] in
  check string_t "query bytes" "\x00\x01\x01k\x00\x00\x02\x00" (Codec.encode_query q);
  check string_t "result bytes" "\x00\x01\x01k\x02\x01a\x04\x00\x01b\x06\x01x"
    (Codec.encode_result r);
  check string_t "query digest" "fcbe2f25491b9348e71a9f36d710d5f85a0c6705"
    (Secrep_crypto.Hex.encode (Canonical.query_digest q));
  check string_t "result digest" "691918ab161c355299b64b57e29db25c00c86405"
    (Secrep_crypto.Hex.encode (Canonical.result_digest r))

let prop_codec_result_roundtrip =
  qtest ~count:200 "codec: result roundtrip" gen_result
    (fun res ->
      match Codec.decode_result (Codec.encode_result res) with
      | Ok res' -> Query_result.equal res res'
      | Error _ -> false)

let prop_codec_never_raises_on_garbage =
  qtest ~count:500 "codec: decoders never raise on random bytes" QCheck2.Gen.string
    (fun s ->
      let safe f = match f s with Ok _ | Error _ -> true | exception _ -> false in
      safe Codec.decode_value && safe Codec.decode_document && safe Codec.decode_query
      && safe Codec.decode_result)

let prop_codec_truncation_fails_cleanly =
  qtest ~count:200 "codec: truncated encodings yield Error" gen_query (fun q ->
      let s = Codec.encode_query q in
      String.length s = 0
      || begin
           let truncated = String.sub s 0 (String.length s - 1) in
           match Codec.decode_query truncated with
           | Error _ -> true
           | Ok q' ->
             (* A shorter valid encoding may exist only if the final
                byte was redundant — never the case for our writer. *)
             Query.equal q q'
         end)

let test_codec_negative_int () =
  match Codec.decode_value (Codec.encode_value (Value.Int (-42))) with
  | Ok v -> check bool_t "negative int survives" true (Value.equal v (Value.Int (-42)))
  | Error msg -> Alcotest.fail msg

(* ---------------- Query_result ---------------- *)

let test_query_result_equal () =
  let doc n = Document.of_fields [ ("n", Value.Int n) ] in
  let rows = Query_result.Rows [ ("a", doc 1); ("b", doc 2) ] in
  check bool_t "rows equal themselves" true
    (Query_result.equal rows (Query_result.Rows [ ("a", doc 1); ("b", doc 2) ]));
  check bool_t "row order matters" false
    (Query_result.equal rows (Query_result.Rows [ ("b", doc 2); ("a", doc 1) ]));
  check bool_t "row document matters" false
    (Query_result.equal rows (Query_result.Rows [ ("a", doc 1); ("b", doc 3) ]));
  check bool_t "a dropped row differs" false
    (Query_result.equal rows (Query_result.Rows [ ("a", doc 1) ]));
  let m = Query_result.Matches [ ("a", "f", "x") ] in
  check bool_t "match field matters" false
    (Query_result.equal m (Query_result.Matches [ ("a", "g", "x") ]));
  check bool_t "match text matters" false
    (Query_result.equal m (Query_result.Matches [ ("a", "f", "y") ]));
  check bool_t "aggregates compare by value" true
    (Query_result.equal (Query_result.Agg (Value.Int 3)) (Query_result.Agg (Value.Int 3)));
  check bool_t "empty rows differ from empty matches" false
    (Query_result.equal (Query_result.Rows []) (Query_result.Matches []))

let test_query_result_size () =
  let doc = Document.of_fields [ ("n", Value.Int 1) ] in
  check int_t "rows" 2 (Query_result.size (Query_result.Rows [ ("a", doc); ("b", doc) ]));
  check int_t "no rows" 0 (Query_result.size (Query_result.Rows []));
  check int_t "matches" 1 (Query_result.size (Query_result.Matches [ ("a", "f", "x") ]));
  check int_t "aggregate" 1 (Query_result.size (Query_result.Agg (Value.Int 0)))

(* ---------------- Audit_index ---------------- *)

let test_audit_index_hits_misses () =
  let idx = Audit_index.create () in
  let q i = Query.point_read (string_of_int i) in
  check bool_t "empty miss" true (Audit_index.find idx ~version:1 (q 1) = None);
  Audit_index.store idx ~version:1 (q 1) ~digest:"d1";
  Audit_index.store idx ~version:1 (q 2) ~digest:"d2";
  check int_t "two entries" 2 (Audit_index.size idx);
  check bool_t "hit q1" true (Audit_index.find idx ~version:1 (q 1) = Some "d1");
  check bool_t "hit q1 again" true (Audit_index.find idx ~version:1 (q 1) = Some "d1");
  check bool_t "hit q2" true (Audit_index.find idx ~version:1 (q 2) = Some "d2");
  check bool_t "version mismatch misses" true (Audit_index.find idx ~version:2 (q 1) = None);
  check bool_t "query mismatch misses" true (Audit_index.find idx ~version:1 (q 3) = None);
  check int_t "three hits" 3 (Audit_index.hits idx);
  check int_t "three misses" 3 (Audit_index.misses idx);
  check bool_t "hit rate = 3/(3+3)" true
    (Float.abs (Audit_index.hit_rate idx -. 0.5) < 1e-9)

let test_audit_index_clear () =
  let idx = Audit_index.create () in
  let q i = Query.point_read (string_of_int i) in
  Audit_index.store idx ~version:1 (q 1) ~digest:"a";
  Audit_index.store idx ~version:1 (q 2) ~digest:"b";
  check bool_t "hit before clear" true (Audit_index.find idx ~version:1 (q 1) = Some "a");
  Audit_index.clear idx;
  check int_t "emptied" 0 (Audit_index.size idx);
  check bool_t "entries dropped" true (Audit_index.find idx ~version:1 (q 1) = None);
  (* Counters describe history, not liveness: clear does not rewind them. *)
  check int_t "hits kept" 1 (Audit_index.hits idx);
  check int_t "misses kept" 1 (Audit_index.misses idx);
  Audit_index.store idx ~version:2 (q 1) ~digest:"c";
  check bool_t "next version memoized" true
    (Audit_index.find idx ~version:2 (q 1) = Some "c")

let test_audit_index_capacity_resets () =
  let idx = Audit_index.create ~capacity:3 () in
  let q i = Query.point_read (string_of_int i) in
  for i = 1 to 5 do
    check bool_t "fresh query misses" true (Audit_index.find idx ~version:1 (q i) = None);
    Audit_index.store idx ~version:1 (q i) ~digest:(string_of_int i);
    check bool_t "at most 3 entries" true (Audit_index.size idx <= 3);
    check bool_t "stored digest hits" true
      (Audit_index.find idx ~version:1 (q i) = Some (string_of_int i))
  done;
  (* The fourth store found the memo full and emptied it first. *)
  check int_t "q4 and q5 left" 2 (Audit_index.size idx);
  check bool_t "q1 gone" true (Audit_index.find idx ~version:1 (q 1) = None);
  check bool_t "q4 kept" true (Audit_index.find idx ~version:1 (q 4) = Some "4");
  check int_t "hits across the reset" 6 (Audit_index.hits idx);
  check int_t "misses across the reset" 6 (Audit_index.misses idx)

let test_audit_index_capacity_one () =
  let idx = Audit_index.create ~capacity:1 () in
  let q i = Query.point_read (string_of_int i) in
  Audit_index.store idx ~version:1 (q 1) ~digest:"a";
  Audit_index.store idx ~version:1 (q 2) ~digest:"b";
  check int_t "one entry" 1 (Audit_index.size idx);
  check bool_t "last digest kept" true (Audit_index.find idx ~version:1 (q 2) = Some "b");
  check bool_t "earlier digest dropped" true (Audit_index.find idx ~version:1 (q 1) = None);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Audit_index.create: capacity must be positive") (fun () ->
      ignore (Audit_index.create ~capacity:0 ()))

(* ---------------- Regex corner cases ---------------- *)

let test_regex_empty_pattern () =
  (* An empty pattern matches everywhere, like grep "". *)
  check bool_t "empty vs empty" true (m "" "");
  check bool_t "empty vs text" true (m "" "anything");
  check bool_t "empty alternative" true (m "(|a)b" "b")

let test_regex_anchor_corners () =
  check bool_t "^$ matches empty" true (m "^$" "");
  check bool_t "^$ rejects non-empty" false (m "^$" "x");
  check bool_t "bare ^ matches anything" true (m "^" "abc");
  check bool_t "bare $ matches anything" true (m "$" "abc");
  check bool_t "^ anchors the search" false (m "^bc" "abc");
  check bool_t "$ anchors the search" false (m "ab$" "abc");
  check bool_t "both anchors" true (m "^abc$" "abc");
  check bool_t "both anchors reject superstring" false (m "^abc$" "xabcx");
  (* A final [$] is an anchor iff an even number of backslashes precede it. *)
  check bool_t "a\\\\$ anchors after a literal backslash" true (m "a\\\\$" "xa\\");
  check bool_t "a\\\\$ is not the text a\\$" false (m "a\\\\$" "a\\$");
  check bool_t "a\\$ is the text a$" true (m "a\\$" "xa$y");
  check bool_t "a\\$ does not anchor" false (m "a\\$" "xa");
  check bool_t "a\\\\\\$ is the text a\\$" true (m "a\\\\\\$" "xa\\$y");
  check bool_t "a\\\\\\$ does not anchor" false (m "a\\\\\\$" "xa\\")

let test_regex_star_backtracking () =
  (* Patterns where a greedy/backtracking matcher must give back
     characters; the NFA simulation should just get these right. *)
  check bool_t "a*a needs give-back" true (m "^a*a$" "aaa");
  check bool_t "a*ab" true (m "^a*ab$" "aaab");
  check bool_t "(a|ab)*c" true (m "^(a|ab)*c$" "aababc");
  check bool_t ".*b finds last b" true (m "^.*b$" "abab");
  check bool_t "a*a*a matches single a" true (m "^a*a*a$" "a");
  check bool_t "star of empty-capable group terminates" true (m "^(a?)*b$" "aab")

let test_regex_class_edges () =
  check bool_t "literal - at end" true (m "^[a-]$" "-");
  check bool_t "literal - at start" true (m "^[-a]$" "-");
  check bool_t "single-char range" true (m "^[a-a]$" "a");
  check bool_t "negated class" false (m "^[^a-c]$" "b");
  check bool_t "negated class hit" true (m "^[^a-c]$" "z");
  check bool_t "class with escape" true (m "^[\\]]$" "]");
  check bool_t "caret mid-class is literal" true (m "^[a^]$" "^");
  let parse_fails pattern =
    match Regex.compile pattern with
    | (_ : Regex.t) -> false
    | exception Regex.Parse_error _ -> true
  in
  check bool_t "unterminated class" true (parse_fails "[ab");
  check bool_t "reversed range" true (parse_fails "[z-a]")

(* ---------------- Codec adversarial round-trips ---------------- *)

let test_codec_roundtrip_adversarial_values () =
  let deep =
    (* 200 levels of list nesting: decoders must not overflow or
       misparse length prefixes. *)
    let rec nest n v = if n = 0 then v else nest (n - 1) (Value.List [ v ]) in
    nest 200 (Value.String "core")
  in
  let gnarly =
    [
      deep;
      Value.String (String.init 256 Char.chr);
      Value.String "";
      Value.List [];
      Value.List [ Value.Null; Value.Bool false; Value.List [ Value.Int min_int ] ];
      Value.Int max_int;
      Value.Int min_int;
      Value.Float Float.nan;
      Value.Float Float.infinity;
      Value.Float (-0.0);
    ]
  in
  List.iter
    (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' ->
        check bool_t "value round-trips" true (Value.equal v v' || Value.compare v v' = 0)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    gnarly

let test_codec_roundtrip_adversarial_strings () =
  (* Keys and fields that look like framing: NULs, length-prefix-ish
     bytes, very long runs. *)
  let keys = [ "\x00"; "\x00\x01\x02"; String.make 300 '\xff'; "\127\128"; "" ] in
  List.iter
    (fun key ->
      let d = doc [ (key, Value.String key) ] in
      match Codec.decode_document (Codec.encode_document d) with
      | Ok d' -> check bool_t "document round-trips" true (Document.equal d d')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    keys

let test_codec_rejects_trailing_garbage () =
  let s = Codec.encode_value (Value.Int 7) in
  (match Codec.decode_value (s ^ "\x00") with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  match Codec.decode_value "" with
  | Ok _ -> Alcotest.fail "accepted empty input"
  | Error _ -> ()

let test_codec_reader_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w 300;
  Codec.Writer.bytes w "payload";
  let s = Codec.Writer.contents w in
  (* Every strict prefix must decode to Error, never raise or loop. *)
  for len = 0 to String.length s - 1 do
    match
      Codec.Reader.run (String.sub s 0 len) (fun r ->
          let n = Codec.Reader.varint r in
          let b = Codec.Reader.bytes r in
          (n, b))
    with
    | Ok _ -> Alcotest.failf "prefix of length %d decoded" len
    | Error _ -> ()
  done;
  match
    Codec.Reader.run s (fun r ->
        let n = Codec.Reader.varint r in
        let b = Codec.Reader.bytes r in
        (n, b))
  with
  | Ok (300, "payload") -> ()
  | Ok _ -> Alcotest.fail "wrong decode"
  | Error e -> Alcotest.failf "full input failed: %s" e

let () =
  Alcotest.run "secrep_store"
    [
      ( "regex",
        [
          Alcotest.test_case "literals" `Quick test_regex_literals;
          Alcotest.test_case "dot/star/plus/opt" `Quick test_regex_dot_star_plus_opt;
          Alcotest.test_case "classes" `Quick test_regex_classes;
          Alcotest.test_case "alternation and groups" `Quick test_regex_alternation_groups;
          Alcotest.test_case "anchors" `Quick test_regex_anchors;
          Alcotest.test_case "escapes" `Quick test_regex_escapes;
          Alcotest.test_case "parse errors" `Quick test_regex_parse_errors;
          Alcotest.test_case "matches_exact" `Quick test_regex_matches_exact;
          Alcotest.test_case "no exponential blow-up" `Quick test_regex_no_blowup;
          Alcotest.test_case "source" `Quick test_regex_source;
          Alcotest.test_case "empty pattern" `Quick test_regex_empty_pattern;
          Alcotest.test_case "anchor corners" `Quick test_regex_anchor_corners;
          Alcotest.test_case "star give-back" `Quick test_regex_star_backtracking;
          Alcotest.test_case "class edges" `Quick test_regex_class_edges;
          prop_regex_vs_reference;
          prop_dfa_vs_nfa;
          Alcotest.test_case "DFA budget falls back to the NFA" `Quick test_regex_dfa_budget;
          Alcotest.test_case "DFA budget holds for long patterns" `Quick
            test_regex_dfa_budget_long_pattern;
          Alcotest.test_case "per-domain compile cache" `Quick test_regex_compile_cache;
          Alcotest.test_case "plus builds one operand copy" `Quick test_regex_plus_linear;
        ] );
      ( "value",
        [
          Alcotest.test_case "compare order" `Quick test_value_compare_order;
          Alcotest.test_case "numeric" `Quick test_value_numeric;
          prop_value_compare_total;
          prop_value_equal_refl;
        ] );
      ("document", [ Alcotest.test_case "operations" `Quick test_document_ops ]);
      ( "query",
        [
          Alcotest.test_case "validate" `Quick test_query_validate;
          Alcotest.test_case "cost class" `Quick test_query_cost_class;
        ] );
      ( "store",
        [
          Alcotest.test_case "versioning" `Quick test_store_versioning;
          Alcotest.test_case "set/remove field" `Quick test_store_set_remove_field;
          Alcotest.test_case "apply_entry gap" `Quick test_store_apply_entry_gap;
          Alcotest.test_case "fold_selector" `Quick test_store_fold_selector;
          Alcotest.test_case "snapshot/restore" `Quick test_store_snapshot_restore;
          Alcotest.test_case "serialization roundtrip" `Quick test_store_serialization;
          Alcotest.test_case "content hash" `Quick test_store_content_hash;
        ] );
      ("oplog", [ Alcotest.test_case "append/after" `Quick test_oplog ]);
      ( "query_eval",
        [
          Alcotest.test_case "select + where" `Quick test_eval_select_where;
          Alcotest.test_case "comparison predicates" `Quick test_eval_comparisons;
          Alcotest.test_case "projection + limit" `Quick test_eval_projection_limit;
          Alcotest.test_case "grep" `Quick test_eval_grep;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "aggregates: empty/missing" `Quick
            test_eval_aggregate_empty_and_missing;
          Alcotest.test_case "bad query" `Quick test_eval_bad_query;
          Alcotest.test_case "replica determinism" `Quick test_eval_deterministic_across_replicas;
          Alcotest.test_case "cost model" `Quick test_eval_cost_seconds;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "distinguishes results" `Quick test_canonical_distinguishes;
          Alcotest.test_case "all query forms distinct" `Quick
            test_canonical_all_query_forms_distinct;
          Alcotest.test_case "query digests" `Quick test_canonical_query_digest;
          prop_canonical_value_injective_ish;
          prop_canonical_result_digest_is_codec;
          prop_canonical_query_digest_is_codec;
          Alcotest.test_case "known answers" `Quick test_canonical_known_answers;
        ] );
      ( "query_result",
        [
          Alcotest.test_case "equal" `Quick test_query_result_equal;
          Alcotest.test_case "size" `Quick test_query_result_size;
        ] );
      ( "audit_index",
        [
          Alcotest.test_case "hits and misses counters" `Quick test_audit_index_hits_misses;
          Alcotest.test_case "clear" `Quick test_audit_index_clear;
          Alcotest.test_case "capacity 3 empties when full" `Quick
            test_audit_index_capacity_resets;
          Alcotest.test_case "capacity 1 keeps the last digest" `Quick
            test_audit_index_capacity_one;
        ] );
      ( "codec",
        [
          prop_codec_value_roundtrip;
          prop_codec_document_roundtrip;
          prop_codec_query_roundtrip;
          prop_codec_result_roundtrip;
          prop_codec_never_raises_on_garbage;
          prop_codec_truncation_fails_cleanly;
          Alcotest.test_case "negative int" `Quick test_codec_negative_int;
          Alcotest.test_case "adversarial values" `Quick test_codec_roundtrip_adversarial_values;
          Alcotest.test_case "adversarial strings" `Quick
            test_codec_roundtrip_adversarial_strings;
          Alcotest.test_case "trailing garbage" `Quick test_codec_rejects_trailing_garbage;
          Alcotest.test_case "reader truncation" `Quick test_codec_reader_truncation;
        ] );
    ]
