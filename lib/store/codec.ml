module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 64
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let varint t v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    let rec go v =
      if v < 0x80 then u8 t v
      else begin
        u8 t (0x80 lor (v land 0x7f));
        go (v lsr 7)
      end
    in
    go v

  let float t v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let bytes t s =
    varint t (String.length s);
    Buffer.add_string t s

  let contents = Buffer.contents
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Truncated
  exception Malformed of string

  let create data = { data; pos = 0 }

  let u8 t =
    if t.pos >= String.length t.data then raise Truncated;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise (Malformed "varint too long");
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      (* A payload bit shifted into the sign position yields a negative
         "length" — adversarial input, not a number we ever write. *)
      if acc < 0 then raise (Malformed "varint overflow");
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let bytes t =
    let len = varint t in
    (* Compare against the *remaining* length: [pos + len] could
       overflow for adversarially huge varints. *)
    if len < 0 || len > String.length t.data - t.pos then raise Truncated;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let at_end t = t.pos = String.length t.data

  let run data f =
    let t = create data in
    match f t with
    | v -> if at_end t then Ok v else Error "trailing garbage"
    | exception Truncated -> Error "truncated input"
    | exception Malformed msg -> Error ("malformed input: " ^ msg)
end

type 'a decoder = string -> ('a, string) result

(* --- values ----------------------------------------------------------- *)

(* A signed int: [tag] then [i] when [i >= 0], else [tag + 1] then
   [-(i + 1)], so every int has its own bytes. *)
let write_int w ~tag i =
  if i >= 0 then begin
    Writer.u8 w tag;
    Writer.varint w i
  end
  else begin
    Writer.u8 w (tag + 1);
    Writer.varint w (-(i + 1))
  end

let rec write_value w (v : Value.t) =
  match v with
  | Null -> Writer.u8 w 0
  | Bool false -> Writer.u8 w 1
  | Bool true -> Writer.u8 w 2
  | Int i -> write_int w ~tag:3 i
  | Float f ->
    Writer.u8 w 5;
    Writer.float w f
  | String s ->
    Writer.u8 w 6;
    Writer.bytes w s
  | List items ->
    Writer.u8 w 7;
    Writer.varint w (List.length items);
    List.iter (write_value w) items

let rec read_value r : Value.t =
  match Reader.u8 r with
  | 0 -> Null
  | 1 -> Bool false
  | 2 -> Bool true
  | 3 -> Int (Reader.varint r)
  | 4 -> Int (-Reader.varint r - 1)
  | 5 -> Float (Reader.float r)
  | 6 -> String (Reader.bytes r)
  | 7 ->
    let n = Reader.varint r in
    if n > 1_000_000 then raise (Reader.Malformed "list too long");
    List (List.init n (fun _ -> read_value r))
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad value tag %d" tag))

(* --- documents --------------------------------------------------------- *)

let write_document w doc =
  let fields = Document.fields doc in
  Writer.varint w (List.length fields);
  List.iter
    (fun (name, v) ->
      Writer.bytes w name;
      write_value w v)
    fields

let read_document r =
  let n = Reader.varint r in
  if n > 1_000_000 then raise (Reader.Malformed "document too wide");
  Document.of_fields
    (List.init n (fun _ ->
         let name = Reader.bytes r in
         let v = read_value r in
         (name, v)))

(* --- queries ------------------------------------------------------------ *)

let write_selector w (sel : Query.selector) =
  match sel with
  | All -> Writer.u8 w 0
  | Key k ->
    Writer.u8 w 1;
    Writer.bytes w k
  | Prefix p ->
    Writer.u8 w 2;
    Writer.bytes w p
  | Key_range { lo; hi } ->
    Writer.u8 w 3;
    Writer.bytes w lo;
    Writer.bytes w hi

let read_selector r : Query.selector =
  match Reader.u8 r with
  | 0 -> All
  | 1 -> Key (Reader.bytes r)
  | 2 -> Prefix (Reader.bytes r)
  | 3 ->
    let lo = Reader.bytes r in
    let hi = Reader.bytes r in
    Key_range { lo; hi }
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad selector tag %d" tag))

let rec write_predicate w (p : Query.predicate) =
  match p with
  | True -> Writer.u8 w 0
  | Field_equals (f, v) ->
    Writer.u8 w 1;
    Writer.bytes w f;
    write_value w v
  | Field_less (f, v) ->
    Writer.u8 w 2;
    Writer.bytes w f;
    write_value w v
  | Field_greater (f, v) ->
    Writer.u8 w 3;
    Writer.bytes w f;
    write_value w v
  | Field_matches (f, pat) ->
    Writer.u8 w 4;
    Writer.bytes w f;
    Writer.bytes w pat
  | Has_field f ->
    Writer.u8 w 5;
    Writer.bytes w f
  | Not inner ->
    Writer.u8 w 6;
    write_predicate w inner
  | And (a, b) ->
    Writer.u8 w 7;
    write_predicate w a;
    write_predicate w b
  | Or (a, b) ->
    Writer.u8 w 8;
    write_predicate w a;
    write_predicate w b

let rec read_predicate depth r : Query.predicate =
  if depth > 64 then raise (Reader.Malformed "predicate too deep");
  match Reader.u8 r with
  | 0 -> True
  | 1 ->
    let f = Reader.bytes r in
    Field_equals (f, read_value r)
  | 2 ->
    let f = Reader.bytes r in
    Field_less (f, read_value r)
  | 3 ->
    let f = Reader.bytes r in
    Field_greater (f, read_value r)
  | 4 ->
    let f = Reader.bytes r in
    Field_matches (f, Reader.bytes r)
  | 5 -> Has_field (Reader.bytes r)
  | 6 -> Not (read_predicate (depth + 1) r)
  | 7 ->
    let a = read_predicate (depth + 1) r in
    And (a, read_predicate (depth + 1) r)
  | 8 ->
    let a = read_predicate (depth + 1) r in
    Or (a, read_predicate (depth + 1) r)
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad predicate tag %d" tag))

let write_aggregate w (agg : Query.aggregate) =
  match agg with
  | Count -> Writer.u8 w 0
  | Sum f ->
    Writer.u8 w 1;
    Writer.bytes w f
  | Min f ->
    Writer.u8 w 2;
    Writer.bytes w f
  | Max f ->
    Writer.u8 w 3;
    Writer.bytes w f
  | Avg f ->
    Writer.u8 w 4;
    Writer.bytes w f

let read_aggregate r : Query.aggregate =
  match Reader.u8 r with
  | 0 -> Count
  | 1 -> Sum (Reader.bytes r)
  | 2 -> Min (Reader.bytes r)
  | 3 -> Max (Reader.bytes r)
  | 4 -> Avg (Reader.bytes r)
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad aggregate tag %d" tag))

let write_query w (q : Query.t) =
  match q with
  | Select { from; where; project; limit } ->
    Writer.u8 w 0;
    write_selector w from;
    write_predicate w where;
    (match project with
    | None -> Writer.u8 w 0
    | Some fields ->
      Writer.u8 w 1;
      Writer.varint w (List.length fields);
      List.iter (Writer.bytes w) fields);
    (match limit with
    | None -> Writer.u8 w 0
    | Some l -> write_int w ~tag:1 l)
  | Grep { from; pattern } ->
    Writer.u8 w 1;
    write_selector w from;
    Writer.bytes w pattern
  | Aggregate { from; where; agg } ->
    Writer.u8 w 2;
    write_selector w from;
    write_predicate w where;
    write_aggregate w agg

let read_query r : Query.t =
  match Reader.u8 r with
  | 0 ->
    let from = read_selector r in
    let where = read_predicate 0 r in
    let project =
      match Reader.u8 r with
      | 0 -> None
      | 1 ->
        let n = Reader.varint r in
        if n > 10_000 then raise (Reader.Malformed "projection too wide");
        Some (List.init n (fun _ -> Reader.bytes r))
      | tag -> raise (Reader.Malformed (Printf.sprintf "bad option tag %d" tag))
    in
    let limit =
      match Reader.u8 r with
      | 0 -> None
      | 1 -> Some (Reader.varint r)
      | 2 -> Some (-Reader.varint r - 1)
      | tag -> raise (Reader.Malformed (Printf.sprintf "bad option tag %d" tag))
    in
    Select { from; where; project; limit }
  | 1 ->
    let from = read_selector r in
    Grep { from; pattern = Reader.bytes r }
  | 2 ->
    let from = read_selector r in
    let where = read_predicate 0 r in
    Aggregate { from; where; agg = read_aggregate r }
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad query tag %d" tag))

(* --- results ------------------------------------------------------------ *)

let write_result w (res : Query_result.t) =
  match res with
  | Rows rows ->
    Writer.u8 w 0;
    Writer.varint w (List.length rows);
    List.iter
      (fun (key, doc) ->
        Writer.bytes w key;
        write_document w doc)
      rows
  | Matches ms ->
    Writer.u8 w 1;
    Writer.varint w (List.length ms);
    List.iter
      (fun (key, field, text) ->
        Writer.bytes w key;
        Writer.bytes w field;
        Writer.bytes w text)
      ms
  | Agg v ->
    Writer.u8 w 2;
    write_value w v

let read_result r : Query_result.t =
  match Reader.u8 r with
  | 0 ->
    let n = Reader.varint r in
    if n > 1_000_000 then raise (Reader.Malformed "too many rows");
    Rows
      (List.init n (fun _ ->
           let key = Reader.bytes r in
           let doc = read_document r in
           (key, doc)))
  | 1 ->
    let n = Reader.varint r in
    if n > 1_000_000 then raise (Reader.Malformed "too many matches");
    Matches
      (List.init n (fun _ ->
           let key = Reader.bytes r in
           let field = Reader.bytes r in
           let text = Reader.bytes r in
           (key, field, text)))
  | 2 -> Agg (read_value r)
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad result tag %d" tag))

(* --- ops & entries ------------------------------------------------------- *)

let write_op w (op : Oplog.op) =
  match op with
  | Put { key; doc } ->
    Writer.u8 w 0;
    Writer.bytes w key;
    write_document w doc
  | Delete { key } ->
    Writer.u8 w 1;
    Writer.bytes w key
  | Set_field { key; field; value } ->
    Writer.u8 w 2;
    Writer.bytes w key;
    Writer.bytes w field;
    write_value w value
  | Remove_field { key; field } ->
    Writer.u8 w 3;
    Writer.bytes w key;
    Writer.bytes w field

let read_op r : Oplog.op =
  match Reader.u8 r with
  | 0 ->
    let key = Reader.bytes r in
    Put { key; doc = read_document r }
  | 1 -> Delete { key = Reader.bytes r }
  | 2 ->
    let key = Reader.bytes r in
    let field = Reader.bytes r in
    Set_field { key; field; value = read_value r }
  | 3 ->
    let key = Reader.bytes r in
    let field = Reader.bytes r in
    Remove_field { key; field }
  | tag -> raise (Reader.Malformed (Printf.sprintf "bad op tag %d" tag))

let write_entry w (e : Oplog.entry) =
  Writer.varint w e.version;
  write_op w e.op

let read_entry r : Oplog.entry =
  let version = Reader.varint r in
  { version; op = read_op r }

(* --- public API ----------------------------------------------------------- *)

let via_writer f x =
  let w = Writer.create () in
  f w x;
  Writer.contents w

let encode_value = via_writer write_value
let decode_value s = Reader.run s read_value
let encode_document = via_writer write_document
let decode_document s = Reader.run s read_document
let encode_query = via_writer write_query
let decode_query s = Reader.run s read_query
let encode_result = via_writer write_result
let decode_result s = Reader.run s read_result
let encode_op = via_writer write_op
let decode_op s = Reader.run s read_op

let encode_entries entries =
  let w = Writer.create () in
  Writer.varint w (List.length entries);
  List.iter (write_entry w) entries;
  Writer.contents w

let decode_entries s =
  Reader.run s (fun r ->
      let n = Reader.varint r in
      if n > 1_000_000 then raise (Reader.Malformed "too many entries");
      List.init n (fun _ -> read_entry r))
