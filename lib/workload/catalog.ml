module Prng = Secrep_crypto.Prng
module Document = Secrep_store.Document
module Value = Secrep_store.Value

let categories =
  [ "books"; "electronics"; "garden"; "toys"; "kitchen"; "sports"; "music"; "office" ]

let journals =
  [ "nature"; "science"; "lancet"; "jacm"; "tocs"; "sosp"; "osdi"; "sigmod" ]

let adjectives = [| "red"; "blue"; "compact"; "deluxe"; "classic"; "portable"; "wireless" |]
let nouns = [| "lamp"; "router"; "novel"; "racket"; "blender"; "keyboard"; "drone" |]

let pick_list g l = List.nth l (Prng.int g (List.length l))

(* [i >= 0] in decimal, zero-padded to [width] digits: Printf's "%0*d"
   without its format interpreter, which dominated a catalog's
   allocation. *)
let zero_pad width i =
  let s = string_of_int i in
  if String.length s >= width then s else String.make (width - String.length s) '0' ^ s

(* Each takes its parts as arguments, so the generator draws for them
   run in argument evaluation order: a seed's catalog depends on that
   order. *)
let product_name adjective noun i = String.concat "" [ adjective; " "; noun; " #"; string_of_int i ]

let product_description adjective noun model =
  String.concat "" [ "A "; adjective; " "; noun; " for every home; model "; zero_pad 4 model; "." ]

let product_catalog g ~n =
  List.init n (fun i ->
      let key = "product:" ^ zero_pad 5 i in
      let name = product_name (Prng.pick g adjectives) (Prng.pick g nouns) i in
      let doc =
        Document.of_fields
          [
            ("name", Value.String name);
            ("category", Value.String (pick_list g categories));
            ("price", Value.Float (1.0 +. (Prng.float g *. 499.0)));
            ("stock", Value.Int (Prng.int g 1000));
            ( "description",
              Value.String
                (product_description (Prng.pick g adjectives) (Prng.pick g nouns)
                   (Prng.int g 10000)) );
          ]
      in
      (key, doc))

let reference_db g ~n =
  List.init n (fun i ->
      let key = Printf.sprintf "article:%05d" i in
      let doc =
        Document.of_fields
          [
            ( "title",
              Value.String
                (Printf.sprintf "On the %s of %s systems (part %d)" (Prng.pick g adjectives)
                   (Prng.pick g nouns) (i mod 7)) );
            ("journal", Value.String (pick_list g journals));
            ("year", Value.Int (1980 + Prng.int g 24));
            ("citations", Value.Int (Prng.int g 5000));
            ( "abstract",
              Value.String
                (Printf.sprintf
                   "We study %s replication over %s hosts and report %d findings."
                   (Prng.pick g adjectives) (Prng.pick g nouns) (Prng.int g 100)) );
          ]
      in
      (key, doc))
