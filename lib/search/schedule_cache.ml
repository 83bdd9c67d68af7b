module Json = Mcf_util.Json
module Shardmap = Mcf_util.Shardmap

let log_src = Logs.Src.create "mcfuser.cache" ~doc:"MCFuser schedule cache"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_hits = Mcf_obs.Metrics.counter "cache.hits"
let c_misses = Mcf_obs.Metrics.counter "cache.misses"

type sched = {
  cand : string;
  time_s : float;
  virtual_s : float;
  estimated : int;
  measured : int;
  generations : int;
}

(* The chain fingerprint covers the chain name (which the tuner's default
   seed derives from), every axis and every tensor; the spec fingerprint
   covers every device field.  Two equal keys therefore run the exact
   same deterministic tuning session.  The bytes are pinned: persisted
   files written by earlier versions must keep hitting. *)
let key ?seed ?reservoir (spec : Mcf_gpu.Spec.t) chain =
  let fp s = Printf.sprintf "%Lx" (Mcf_util.Hashing.fnv1a64 s) in
  Printf.sprintf "%s|%s|%s|seed=%s|res=%s" spec.name
    (fp (Mcf_gpu.Spec.fingerprint spec))
    (Measure.chain_fp chain)
    (match seed with Some s -> string_of_int s | None -> "auto")
    (match reservoir with Some n -> string_of_int n | None -> "none")

(* --- sched JSON -------------------------------------------------------- *)

let sched_fields (s : sched) =
  [ ("candidate", Json.Str s.cand);
    ("kernel_time_s", Json.Num s.time_s);
    ("tuning_virtual_s", Json.Num s.virtual_s);
    ("estimated", Json.num_of_int s.estimated);
    ("measured", Json.num_of_int s.measured);
    ("generations", Json.num_of_int s.generations) ]

let sched_of_json j =
  let int name =
    match Json.member name j with
    | Some (Json.Num n) when Float.is_integer n -> Some (int_of_float n)
    | _ -> None
  in
  match
    ( Json.member "candidate" j,
      Json.member "kernel_time_s" j,
      Json.member "tuning_virtual_s" j,
      int "estimated",
      int "measured",
      int "generations" )
  with
  | ( Some (Json.Str cand),
      Some (Json.Num time_s),
      Some (Json.Num virtual_s),
      Some estimated,
      Some measured,
      Some generations ) ->
    Some { cand; time_s; virtual_s; estimated; measured; generations }
  | _ -> None

let sched_of_outcome (o : Tuner.outcome) =
  { cand = Mcf_ir.Candidate.serialize o.best.cand;
    time_s = o.kernel_time_s;
    virtual_s = o.tuning_virtual_s;
    estimated = o.search_stats.estimated;
    measured = o.search_stats.measured;
    generations = o.search_stats.generations }

(* --- tune once, reuse -------------------------------------------------- *)

let tune_with_cache ~cache_file ?seed ?reservoir ?measure
    (spec : Mcf_gpu.Spec.t) chain =
  let module Trace = Mcf_obs.Trace in
  (* Unbounded: every entry of the file must survive the save below. *)
  let cache = Shardmap.create () in
  Trace.with_span "cache.load" (fun () ->
      ignore (Shardmap.load ~decode:sched_of_json cache cache_file));
  let k = key ?seed ?reservoir spec chain in
  match Shardmap.find cache k with
  | Some s ->
    Mcf_obs.Metrics.incr c_hits;
    Log.info (fun m -> m "hit: %s -> %s" k s.cand);
    Ok (None, s)
  | None -> (
    Mcf_obs.Metrics.incr c_misses;
    Log.info (fun m -> m "miss: %s, tuning" k);
    match Tuner.tune ?seed ?reservoir ?measure spec chain with
    | Error e -> Error e
    | Ok outcome ->
      let s = sched_of_outcome outcome in
      Shardmap.set cache k s;
      Trace.with_span "cache.save" (fun () ->
          ignore (Shardmap.save ~encode:sched_fields cache cache_file));
      Ok (Some outcome, s))
