type t = { table : (string, (int, Certificate.t) Hashtbl.t) Hashtbl.t }

let create () = { table = Hashtbl.create 8 }

let bucket t content_id =
  match Hashtbl.find_opt t.table content_id with
  | Some b -> b
  | None ->
    let b = Hashtbl.create 8 in
    Hashtbl.add t.table content_id b;
    b

let publish t (cert : Certificate.t) =
  Hashtbl.replace (bucket t cert.content_id) cert.master_id cert

let lookup t ~content_id =
  match Hashtbl.find_opt t.table content_id with
  | None -> []
  | Some b ->
    Hashtbl.fold (fun _ cert acc -> cert :: acc) b []
    |> List.sort (fun (a : Certificate.t) b -> Int.compare a.master_id b.master_id)
