module Codec = Secrep_store.Codec
module Writer = Codec.Writer
module Reader = Codec.Reader
module Sig_scheme = Secrep_crypto.Sig_scheme
module Merkle = Secrep_crypto.Merkle

(* Writers live with their types, next to the signed payloads that
   share their field order; the readers here mirror them. *)
let via_writer write x =
  let w = Writer.create () in
  write w x;
  Writer.contents w

let read_keepalive r : Keepalive.t =
  let content_id = Reader.bytes r in
  let version = Reader.varint r in
  let timestamp = Reader.float r in
  let master_id = Reader.varint r in
  let signature = Reader.bytes r in
  { content_id; version; timestamp; master_id; signature }

let encode_keepalive = via_writer Keepalive.write

let decode_keepalive s = Reader.run s read_keepalive

(* [Pledge.write_head] writes the mode tag (0 = single, 1 = batched;
   2 and 3 are their nonce-bearing variants, with the nonce varint
   after the slave id) and the signed fields.  The signature follows,
   then a batched pledge's root and inclusion proof.  Proof sides are
   one byte each: 0 = the sibling hashes in from the left, 1 = from the
   right. *)
let encode_pledge (p : Pledge.t) =
  let w = Writer.create () in
  Pledge.write_head w
    ~batched:(match p.mode with Pledge.Single -> false | Pledge.Batched _ -> true)
    p;
  Writer.bytes w p.signature;
  (match p.mode with
  | Pledge.Single -> ()
  | Pledge.Batched { root; proof } ->
    Writer.bytes w root;
    Writer.varint w proof.Merkle.leaf_index;
    Writer.varint w (List.length proof.Merkle.path);
    List.iter
      (fun (sibling, side) ->
        Writer.u8 w (match side with `Left -> 0 | `Right -> 1);
        Writer.bytes w sibling)
      proof.Merkle.path);
  Writer.contents w

let decode_pledge s =
  Reader.run s (fun r ->
      let tag = Reader.u8 r in
      if tag < 0 || tag > 3 then
        raise (Reader.Malformed (Printf.sprintf "pledge mode tag %d" tag));
      let slave_id = Reader.varint r in
      let nonce =
        if tag >= 2 then begin
          let n = Reader.varint r in
          if n = 0 then raise (Reader.Malformed "nonced pledge with nonce 0");
          n
        end
        else 0
      in
      let query_bytes = Reader.bytes r in
      let query =
        match Codec.decode_query query_bytes with
        | Ok q -> q
        | Error msg -> raise (Reader.Malformed ("pledge query: " ^ msg))
      in
      let result_digest = Reader.bytes r in
      let keepalive = read_keepalive r in
      let signature = Reader.bytes r in
      let mode =
        if tag = 0 || tag = 2 then Pledge.Single
        else begin
          let root = Reader.bytes r in
          let leaf_index = Reader.varint r in
          let n = Reader.varint r in
          if leaf_index < 0 || n < 0 then
            raise (Reader.Malformed "pledge proof: negative length");
          let rec read_path k acc =
            if k = 0 then List.rev acc
            else begin
              let side =
                match Reader.u8 r with
                | 0 -> `Left
                | 1 -> `Right
                | b -> raise (Reader.Malformed (Printf.sprintf "pledge proof side %d" b))
              in
              let sibling = Reader.bytes r in
              read_path (k - 1) ((sibling, side) :: acc)
            end
          in
          let path = read_path n [] in
          Pledge.Batched { root; proof = { Merkle.leaf_index; path } }
        end
      in
      { Pledge.slave_id; query; result_digest; keepalive; nonce; signature; mode })

let encode_certificate = via_writer Certificate.write

let decode_certificate s =
  Reader.run s (fun r ->
      let content_id = Reader.bytes r in
      let master_id = Reader.varint r in
      let address = Reader.bytes r in
      let master_public =
        match Sig_scheme.decode_public (Reader.bytes r) with
        | Ok p -> p
        | Error msg -> raise (Reader.Malformed ("certificate key: " ^ msg))
      in
      let signature = Reader.bytes r in
      { Certificate.content_id; master_id; address; master_public; signature })

let pledge_size p = String.length (encode_pledge p)
