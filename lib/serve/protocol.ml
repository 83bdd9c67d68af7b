module Json = Mcf_util.Json

(* Wire format of the tuning service.  See protocol.mli for the
   contract and DESIGN.md for the JSON schema. *)

type tune_request = {
  workload : string;
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  seed : int option;
  reservoir : int option;
}

(* --- workload resolution ---------------------------------------------- *)

let chain_of_workload name =
  let canon = String.lowercase_ascii name in
  let strip_prefix p s =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  let gemm =
    List.find_opt
      (fun (g : Mcf_workloads.Configs.gemm_config) ->
        String.lowercase_ascii g.gname = canon)
      Mcf_workloads.Configs.gemm_chains
  in
  match gemm with
  | Some g -> Ok (Mcf_workloads.Configs.gemm_chain g)
  | None -> (
    let attention =
      List.find_opt
        (fun (s : Mcf_workloads.Configs.attention_config) ->
          let network = String.lowercase_ascii s.network in
          String.lowercase_ascii s.sname = canon
          || network = canon
          ||
          match strip_prefix "mha-" canon with
          | Some suffix -> network = "bert-" ^ suffix
          | None -> false)
        Mcf_workloads.Configs.attentions
    in
    match attention with
    | Some s -> Ok (Mcf_workloads.Configs.attention s)
    | None -> (
      match Mcf_workloads.Configs.find_deep name with
      | Some d -> Ok (Mcf_workloads.Configs.deep_chain d)
      | None ->
        Error
          (Printf.sprintf
             "unknown workload %S (G1-G12, S1-S9, D5-D8, a network name like \
              bert-base, or mha-small/base/large)"
             name)))

(* --- request parsing --------------------------------------------------- *)

let jint j = match j with Json.Num n when Float.is_integer n -> Some (int_of_float n) | _ -> None

let field_int obj name ~default =
  match Json.member name obj with
  | None -> Ok default
  | Some j -> (
    match jint j with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "field %S must be a positive integer" name))

let chain_of_json j =
  match Json.member "kind" j with
  | Some (Json.Str kind) -> (
    let dims () =
      match
        ( field_int j "batch" ~default:1,
          field_int j "m" ~default:0,
          field_int j "n" ~default:0,
          field_int j "k" ~default:0,
          field_int j "h" ~default:0 )
      with
      | Ok batch, Ok m, Ok n, Ok k, Ok h ->
        if m <= 0 || n <= 0 || k <= 0 || h <= 0 then
          Error "chain dims m, n, k, h must all be positive integers"
        else Ok (batch, m, n, k, h)
      | (Error _ as e), _, _, _, _
      | _, (Error _ as e), _, _, _
      | _, _, (Error _ as e), _, _
      | _, _, _, (Error _ as e), _
      | _, _, _, _, (Error _ as e) -> e
    in
    match kind with
    | "gemm" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (batch, m, n, k, h) ->
        Ok (Mcf_ir.Chain.gemm_chain ~batch ~m ~n ~k ~h ()))
    | "mlp" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (batch, m, n, k, h) ->
        Ok (Mcf_ir.Chain.mlp_chain ~batch ~m ~n ~k ~h ()))
    | "attention" -> (
      match dims () with
      | Error _ as e -> e
      | Ok (heads, m, n, k, h) ->
        Ok (Mcf_ir.Chain.attention ~heads ~m ~n ~k ~h ()))
    | "gemm3" -> (
      match (dims (), field_int j "p" ~default:0) with
      | Error _ as e, _ -> e
      | _, Error _ -> Error "field \"p\" must be a positive integer"
      | Ok (batch, m, n, k, h), Ok p ->
        if p <= 0 then Error "chain kind \"gemm3\" requires a positive \"p\""
        else Ok (Mcf_ir.Chain.gemm_chain3 ~batch ~m ~n ~k ~h ~p ()))
    | other ->
      Error
        (Printf.sprintf
           "unknown chain kind %S (expected gemm, mlp, attention or gemm3)"
           other))
  | Some _ -> Error "chain field \"kind\" must be a string"
  | None -> Error "chain object is missing the \"kind\" field"

let parse_tune_request body =
  match Json.parse (String.trim body) with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok (Json.Obj _ as j) -> (
    let chain =
      match (Json.member "workload" j, Json.member "chain" j) with
      | Some (Json.Str _), Some _ | Some _, Some _ ->
        Error "give either \"workload\" or \"chain\", not both"
      | Some (Json.Str w), None -> (
        match chain_of_workload w with
        | Ok c -> Ok (w, c)
        | Error _ as e -> e)
      | Some _, None -> Error "field \"workload\" must be a string"
      | None, Some (Json.Obj _ as cj) -> (
        match chain_of_json cj with
        | Ok c -> Ok (c.Mcf_ir.Chain.cname, c)
        | Error _ as e -> e)
      | None, Some _ -> Error "field \"chain\" must be an object"
      | None, None -> Error "request needs a \"workload\" or \"chain\" field"
    in
    match chain with
    | Error _ as e -> e
    | Ok (workload, chain) -> (
      let device =
        match Json.member "device" j with
        | None -> Ok "A100"
        | Some (Json.Str d) -> Ok d
        | Some _ -> Error "field \"device\" must be a string"
      in
      match device with
      | Error _ as e -> e
      | Ok device -> (
        match Mcf_gpu.Spec.by_name device with
        | None ->
          Error
            (Printf.sprintf "unknown device %S (available: %s)" device
               (String.concat ", "
                  (List.map
                     (fun (s : Mcf_gpu.Spec.t) -> s.name)
                     Mcf_gpu.Spec.all)))
        | Some spec -> (
          let opt_field name =
            match Json.member name j with
            | None -> Ok None
            | Some v -> (
              match jint v with
              | Some n when n >= 0 -> Ok (Some n)
              | _ ->
                Error
                  (Printf.sprintf "field %S must be a non-negative integer"
                     name))
          in
          match (opt_field "seed", opt_field "reservoir") with
          | Error _ as e, _ | _, (Error _ as e) -> e
          | Ok seed, Ok reservoir ->
            Ok { workload; chain; spec; seed; reservoir }))))
  | Ok _ -> Error "request body must be a JSON object"
