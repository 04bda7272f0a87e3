type outcome = { result : Query_result.t; scanned : int }

let compile_patterns_in_predicate pred =
  (* Compile each regex once per query execution; the table is tiny. *)
  let table = Hashtbl.create 4 in
  let rec walk (p : Query.predicate) =
    match p with
    | True | Field_equals _ | Field_less _ | Field_greater _ | Has_field _ -> ()
    | Field_matches (_, pattern) ->
      if not (Hashtbl.mem table pattern) then Hashtbl.add table pattern (Regex.compile pattern)
    | Not inner -> walk inner
    | And (a, b) | Or (a, b) ->
      walk a;
      walk b
  in
  walk pred;
  table

let rec eval_predicate table (p : Query.predicate) doc =
  match p with
  | True -> true
  | Field_equals (f, v) -> begin
    match Document.get doc f with Some x -> Value.equal x v | None -> false
  end
  | Field_less (f, v) -> begin
    match (Document.get doc f, Value.as_float v) with
    | Some x, Some bound -> begin
      match Value.as_float x with Some fx -> fx < bound | None -> false
    end
    | Some x, None -> Value.compare x v < 0
    | None, _ -> false
  end
  | Field_greater (f, v) -> begin
    match (Document.get doc f, Value.as_float v) with
    | Some x, Some bound -> begin
      match Value.as_float x with Some fx -> fx > bound | None -> false
    end
    | Some x, None -> Value.compare x v > 0
    | None, _ -> false
  end
  | Field_matches (f, pattern) -> begin
    match Document.get doc f with
    | Some (String s) -> Regex.matches (Hashtbl.find table pattern) s
    | Some _ | None -> false
  end
  | Has_field f -> Document.mem doc f
  | Not inner -> not (eval_predicate table inner doc)
  | And (a, b) -> eval_predicate table a doc && eval_predicate table b doc
  | Or (a, b) -> eval_predicate table a doc || eval_predicate table b doc

let project_doc project doc =
  match project with
  | None -> doc
  | Some fields ->
    List.fold_left
      (fun acc f ->
        match Document.get doc f with Some v -> Document.set acc f v | None -> acc)
      Document.empty fields

let execute store (q : Query.t) =
  match Query.validate q with
  | Error _ as e -> e
  | Ok () -> begin
    match q with
    | Select { from; where; project; limit } ->
      let table = compile_patterns_in_predicate where in
      let scanned, rows =
        Store.fold_selector store from ~init:(0, []) ~f:(fun (n, acc) key doc ->
            let acc =
              if eval_predicate table where doc then (key, project_doc project doc) :: acc
              else acc
            in
            (n + 1, acc))
      in
      let rows = List.rev rows in
      let rows =
        match limit with
        | None -> rows
        | Some l -> List.filteri (fun i _ -> i < l) rows
      in
      Ok { result = Query_result.Rows rows; scanned }
    | Grep { from; pattern } ->
      let re = Regex.compile pattern in
      let scanned, ms =
        Store.fold_selector store from ~init:(0, []) ~f:(fun (n, acc) key doc ->
            let acc =
              Document.fold doc ~init:acc ~f:(fun acc field v ->
                  match v with
                  | Value.String s when Regex.matches re s -> (key, field, s) :: acc
                  | _ -> acc)
            in
            (n + 1, acc))
      in
      Ok { result = Query_result.Matches (List.rev ms); scanned }
    | Aggregate { from; where; agg } ->
      let table = compile_patterns_in_predicate where in
      let scanned, count, sum, min_v, max_v =
        Store.fold_selector store from ~init:(0, 0, None, None, None)
          ~f:(fun (n, count, sum, min_v, max_v) _key doc ->
            if not (eval_predicate table where doc) then (n + 1, count, sum, min_v, max_v)
            else begin
              let field_of = function
                | Query.Count -> None
                | Sum f | Min f | Max f | Avg f -> Some f
              in
              let v = Option.bind (field_of agg) (Document.get doc) in
              let sum =
                match v with
                | None -> sum
                | Some v -> begin
                  match sum with
                  | None -> Some v
                  | Some acc -> begin
                    match Value.add_numeric acc v with Some s -> Some s | None -> Some acc
                  end
                end
              in
              let min_v =
                match v with
                | None -> min_v
                | Some v -> begin
                  match min_v with
                  | None -> Some v
                  | Some m -> Some (if Value.compare v m < 0 then v else m)
                end
              in
              let max_v =
                match v with
                | None -> max_v
                | Some v -> begin
                  match max_v with
                  | None -> Some v
                  | Some m -> Some (if Value.compare v m > 0 then v else m)
                end
              in
              (n + 1, count + 1, sum, min_v, max_v)
            end)
      in
      let value =
        match agg with
        | Count -> Value.Int count
        | Sum _ -> Option.value sum ~default:Value.Null
        | Min _ -> Option.value min_v ~default:Value.Null
        | Max _ -> Option.value max_v ~default:Value.Null
        | Avg _ -> begin
          match (sum, count) with
          | Some s, n when n > 0 -> begin
            match Value.as_float s with
            | Some f -> Value.Float (f /. float_of_int n)
            | None -> Value.Null
          end
          | _ -> Value.Null
        end
      in
      Ok { result = Query_result.Agg value; scanned }
  end

let execute_exn store q =
  match execute store q with
  | Ok outcome -> outcome
  | Error msg -> invalid_arg ("Query_eval.execute_exn: " ^ msg)

let cost_seconds ~scanned ~cost_class ~per_doc =
  let dispatch = 20e-6 in
  let planning = match cost_class with `Point -> 0.0 | `Scan -> 20e-6 | `Full_scan -> 100e-6 in
  dispatch +. planning +. (float_of_int scanned *. per_doc)
