type scheme = Rsa of { bits : int } | Hmac_sim

type public =
  | Rsa_pub of Rsa.public_key
  | Hmac_pub of { secret : string; id : string }

type keypair =
  | Rsa_key of { scheme : scheme; key : Rsa.private_key }
  | Hmac_key of { secret : string; id : string }

let generate scheme g =
  match scheme with
  | Rsa { bits } -> Rsa_key { scheme; key = Rsa.generate g ~bits }
  | Hmac_sim ->
    let secret = Prng.bytes g 32 in
    Hmac_key { secret; id = Hex.encode (Sha256.digest secret) }

let public_of = function
  | Rsa_key { key; _ } -> Rsa_pub key.Rsa.pub
  | Hmac_key { secret; id } -> Hmac_pub { secret; id }

let sign kp msg =
  match kp with
  | Rsa_key { key; _ } -> Rsa.sign key msg
  | Hmac_key { secret; _ } -> Hmac.mac ~hash:Hmac.Sha256 ~key:secret msg

let verify pub ~msg ~signature =
  match pub with
  | Rsa_pub key -> Rsa.verify key ~msg ~signature
  | Hmac_pub { secret; _ } ->
    Hmac.equal_const_time signature (Hmac.mac ~hash:Hmac.Sha256 ~key:secret msg)

let key_id = function
  | Rsa_pub key -> String.sub (Rsa.fingerprint key) 0 16
  | Hmac_pub { id; _ } -> String.sub id 0 16

(* Wire format: a tag character, then length-prefixed decimal fields.
   Kept self-contained (this library sits below the store codec). *)
let add_field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let encode_public = function
  | Rsa_pub key ->
    let buf = Buffer.create 64 in
    Buffer.add_char buf 'R';
    add_field buf (Bignum.to_hex key.Rsa.n);
    add_field buf (Bignum.to_hex key.Rsa.e);
    Buffer.contents buf
  | Hmac_pub { secret; id } ->
    let buf = Buffer.create 64 in
    Buffer.add_char buf 'H';
    add_field buf secret;
    add_field buf id;
    Buffer.contents buf

let decode_public s =
  let pos = ref 1 in
  let read_field () =
    let colon = String.index_from s !pos ':' in
    let len = int_of_string (String.sub s !pos (colon - !pos)) in
    if len < 0 || colon + 1 + len > String.length s then failwith "bad field";
    let v = String.sub s (colon + 1) len in
    pos := colon + 1 + len;
    v
  in
  match
    if String.length s = 0 then Error "empty"
    else begin
      match s.[0] with
      | 'R' ->
        let n = Bignum.of_hex (read_field ()) in
        let e = Bignum.of_hex (read_field ()) in
        if !pos <> String.length s then Error "trailing garbage"
        else Ok (Rsa_pub (Rsa.make_public ~n ~e))
      | 'H' ->
        let secret = read_field () in
        let id = read_field () in
        if !pos <> String.length s then Error "trailing garbage"
        else Ok (Hmac_pub { secret; id })
      | c -> Error (Printf.sprintf "bad tag %C" c)
    end
  with
  | result -> result
  | exception (Failure msg) -> Error msg
  | exception Not_found -> Error "missing delimiter"
  | exception Invalid_argument msg -> Error msg

let pp_public fmt pub = Format.fprintf fmt "key:%s" (key_id pub)
