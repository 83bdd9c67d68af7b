(* serve-mix: an in-process Mcf_serve.Server driven over its HTTP socket by
   client threads in a closed loop, from a seeded key stream. *)

open Common
module Server = Mcf_serve.Server
module Client = Mcf_util.Httpd.Client

let workers = 2
let clients = 2
let hot_keys = 8
let hot_share = 0.8

(* Fresh keys re-tuned directly after the window, besides every hot key. *)
let fresh_checked = 16

(* A daemon is only set up once its health endpoint answers. *)
let start () =
  match Server.start ~config:{ Server.default_config with workers } () with
  | Error e -> failwith ("serve-mix: cannot start the daemon: " ^ e)
  | Ok srv -> (
    match Client.get (Server.url srv ^ "/healthz") with
    | Ok (200, _) -> srv
    | _ -> failwith "serve-mix: the daemon does not answer /healthz")

type reply = {
  job : job;
  hot : bool;
  source : Server.source;
  latency_s : float;
  submit_s : float;  (** The POST /tune round trip alone. *)
  answer : answer;
}

let body job =
  Json.to_string
    (Json.Obj
       ([ ("workload", Json.Str job.wname); ("seed", Json.num_of_int job.tseed) ]
       @
       match job.reservoir with
       | Some r -> [ ("reservoir", Json.num_of_int r) ]
       | None -> []))

(* [spans] is (recorder, lane, trace, parent) in the traced window. *)
let in_span spans name f =
  match spans with
  | None -> f ()
  | Some (sp, lane, trace, parent) ->
    Spans.span sp ~lane ~trace ~parent name (fun _ -> f ())

(* POST /tune, then wait for the job with Server.await in this process, so
   no polling interval is added to the measured latency. *)
let request ?spans srv ~hot job =
  let t0 = now () in
  match
    in_span spans "httpd.post_tune" (fun () ->
        Client.post (Server.url srv ^ "/tune") ~body:(body job))
  with
  | Error e -> Error ("POST /tune: " ^ e)
  | Ok (code, resp) when code <> 200 && code <> 202 ->
    Error (Printf.sprintf "POST /tune: HTTP %d %s" code resp)
  | Ok (_, resp) -> (
    let submit_s = now () -. t0 in
    match Result.map (Json.member "job") (Json.parse (String.trim resp)) with
    | Ok (Some (Json.Str jid)) -> (
      match in_span spans "serve.await" (fun () -> Server.await srv jid) with
      | Some { vstatus = Done s; vsource; _ } ->
        Ok
          { job;
            hot;
            source = vsource;
            latency_s = now () -. t0;
            submit_s;
            answer = { cand = s.cand; kernel_s = s.time_s; virtual_s = s.virtual_s } }
      | Some { vstatus = Failed e; _ } -> Error ("job failed: " ^ e)
      | Some _ | None -> Error ("job " ^ jid ^ " did not complete"))
    | _ -> Error ("POST /tune: no job id in " ^ resp))

(* The seeded key stream.  About [hot_share] of the requests repeat one of
   [hot_keys] (workload, seed) keys; the rest are fresh keys: a Table
   II/III chain, cycled in a seeded order, with a seed never used before. *)
type stream = {
  lock : Mutex.t;
  rng : Rng.t;
  hot_set : job array;
  fresh_order : (string * Mcf_ir.Chain.t) array;
  fresh_base : int;
  mutable fresh : int;
}

let stream rng =
  let order = Array.of_list paper_chains in
  Rng.shuffle rng order;
  let hot =
    Array.init hot_keys (fun i ->
        let wname, chain = order.(i) in
        { wname; chain; tseed = tuner_seed rng; reservoir = None })
  in
  let fresh_order = Array.copy order in
  Rng.shuffle rng fresh_order;
  { lock = Mutex.create ();
    rng;
    hot_set = hot;
    fresh_order;
    fresh_base = (1 lsl 30) + tuner_seed rng;
    fresh = 0 }

let next s =
  Mutex.lock s.lock;
  let r =
    if Rng.float s.rng 1.0 < hot_share then (Rng.pick s.rng s.hot_set, true)
    else begin
      let wname, chain =
        s.fresh_order.(s.fresh mod Array.length s.fresh_order)
      in
      s.fresh <- s.fresh + 1;
      ({ wname; chain; tseed = s.fresh_base + s.fresh; reservoir = None }, false)
    end
  in
  Mutex.unlock s.lock;
  r

type window = {
  replies : reply list;
  errors : int;
  heap : float list;  (** Heap readings, one per request. *)
  elapsed : float;
}

(* The traced run samples GET /healthz round trips and the queue depth
   from GET /status every 10 ms, at least [min_samples] times. *)
type samples = {
  mutable rtts : float list;
  mutable depths : float list;
  mutable sample_errors : int;
}

let min_samples = 10

let sampler srv samples stop =
  let url = Server.url srv in
  let queued body =
    match Json.parse (String.trim body) with
    | Ok doc -> (
      match Option.bind (Json.member "serve" doc) (Json.member "queued_sessions") with
      | Some (Json.Num d) -> Some d
      | _ -> None)
    | Error _ -> None
  in
  let loop () =
    let i = ref 0 in
    while !i < min_samples || not (Atomic.get stop) do
      incr i;
      let t0 = now () in
      (match Client.get (url ^ "/healthz") with
      | Ok (200, _) -> samples.rtts <- (now () -. t0) :: samples.rtts
      | _ -> samples.sample_errors <- samples.sample_errors + 1);
      (match Option.bind (Result.to_option (Client.get (url ^ "/status"))) (fun (code, body) -> if code = 200 then queued body else None) with
      | Some d -> samples.depths <- d :: samples.depths
      | None -> samples.sample_errors <- samples.sample_errors + 1);
      Thread.delay 0.01
    done
  in
  Thread.create loop ()

(* The client side runs on a domain of its own, as separate client
   processes would.  The daemon's threads all share the domain that
   started it; client threads there would queue for its runtime lock
   behind the tuning workers and add the benchmark's own contention to
   every latency.  [samples], when given, runs the sampler alongside. *)
let on_client_domain ?samples srv f =
  Domain.join
    (Domain.spawn (fun () ->
         let stop = Atomic.make false in
         let th = Option.map (fun s -> sampler srv s stop) samples in
         let r = f () in
         Atomic.set stop true;
         Option.iter Thread.join th;
         r))

(* [clients] threads, each sending its next request only once the previous
   one has completed, until [seconds] have passed. *)
let drive ?spans ?samples srv stream ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let replies = Array.make clients [] and errors = Array.make clients 0 in
  let heap = Array.make clients [] in
  let traces = Atomic.make 0 in
  let client c () =
    while now () < deadline do
      let job, hot = next stream in
      let r =
        match spans with
        | None -> request srv ~hot job
        | Some sp ->
          let trace = Atomic.fetch_and_add traces 1 in
          Spans.span sp ~lane:c ~trace "serve.request" (fun root ->
              request ~spans:(sp, c, trace, root) srv ~hot job)
      in
      heap.(c) <- heap_reading () :: heap.(c);
      match r with
      | Ok r -> replies.(c) <- r :: replies.(c)
      | Error e ->
        errors.(c) <- errors.(c) + 1;
        prerr_endline ("perfbench: serve-mix: " ^ e)
    done
  in
  on_client_domain ?samples srv (fun () ->
      List.iter Thread.join
        (List.init clients (fun c -> Thread.create (client c) ())));
  { replies = List.concat (Array.to_list replies);
    errors = Array.fold_left ( + ) 0 errors;
    heap = List.concat (Array.to_list heap);
    elapsed = now () -. t0 }

let new_samples () = { rtts = []; depths = []; sample_errors = 0 }

let latencies rs = List.map (fun r -> r.latency_s) rs
let of_source src rs = List.filter (fun r -> r.source = src) rs

let layer_metrics replies samples : metric list =
  let share src =
    ratio
      (float_of_int (List.length (of_source src replies)))
      (float_of_int (List.length replies))
  in
  let p50 rs = Stats.percentile 50.0 (latencies rs) in
  [ ("httpd.healthz_rtt_s", Stats.median samples.rtts, "s");
    ( "serve.submit_s",
      Stats.median (List.map (fun r -> r.submit_s) replies),
      "s" );
    ("serve.cached_latency_p50_s", p50 (of_source Server.Cached replies), "s");
    ("serve.tuned_latency_p50_s", p50 (of_source Server.Tuned replies), "s");
    ("serve.cached_share", share Server.Cached, "share");
    ("serve.coalesced_share", share Server.Coalesced, "share");
    ("serve.tuned_share", share Server.Tuned, "share");
    ("serve.queue_depth_mean", Stats.mean samples.depths, "count") ]

(* The first reply per key, in key order; every later reply to the same
   key must equal it. *)
let distinct replies =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = (r.job.wname, r.job.tseed) in
      match Hashtbl.find_opt by_key key with
      | None -> Hashtbl.add by_key key r
      | Some first ->
        check_same
          ~what:(Printf.sprintf "serve-mix answers to %s seed %d" r.job.wname r.job.tseed)
          first.answer r.answer)
    replies;
  Hashtbl.fold (fun key r acc -> (key, r) :: acc) by_key []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Each hot key and a seeded sample of fresh keys must equal a direct
   Tuner.tune of the key (and, when given, the traced decomposition). *)
let check_direct ?decompose rng firsts =
  let fresh = Array.of_list (List.filter (fun r -> not r.hot) firsts) in
  let sample =
    List.map (Array.get fresh)
      (Rng.sample_without_replacement rng fresh_checked (Array.length fresh))
  in
  List.iter
    (fun r ->
      let what = Printf.sprintf "served %s seed %d vs Tuner.tune" r.job.wname r.job.tseed in
      match direct_tune r.job with
      | None -> mismatch "%s: the direct tune found no candidate" what
      | Some direct -> (
        check_same ~what direct r.answer;
        match decompose with
        | None -> ()
        | Some f -> (
          match f r.job with
          | Some d -> check_same ~what:(what ^ " (traced decomposition)") direct d
          | None -> mismatch "%s: the traced decomposition failed" what)))
    (List.filter (fun r -> r.hot) firsts @ sample)

(* Serve-layer figures for a workload that does not itself drive the
   daemon: one request for [job] (tuned) and [probe_cached] repeats of it
   (cached), with the sampler running.  Every answer must equal
   [expected].  Returns the metrics and the requests attempted and
   failed. *)
let probe_cached = 20

let probe job ~expected =
  let srv = start () in
  let samples = new_samples () in
  let results =
    on_client_domain ~samples srv (fun () ->
        List.init (1 + probe_cached) (fun _ -> request srv ~hot:true job))
  in
  Server.stop srv;
  let replies =
    List.filter_map
      (function
        | Ok r -> Some r
        | Error e ->
          prerr_endline ("perfbench: serve probe: " ^ e);
          None)
      results
  in
  List.iter
    (fun r ->
      check_same ~what:("served " ^ job.wname ^ " vs Tuner.tune") expected r.answer)
    replies;
  ( layer_metrics replies samples,
    List.length results,
    List.length results - List.length replies + samples.sample_errors )

(* The traced run alternates untraced and traced segments of equal length
   (untraced first), so warm-up and drift fall on both sides of the
   overhead comparison.  [segment ~traced seconds] runs one segment.
   Returns the untraced and the traced segments' results, in order, and
   the counter delta summed over the traced ones. *)
let trace_segments = 10

let alternate ~seconds segment =
  let seconds = seconds /. float_of_int trace_segments in
  let untraced, traced, delta =
    List.fold_left
      (fun (us, ts, delta) traced ->
        if traced then begin
          let before = counters () in
          let r = segment ~traced seconds in
          let d = combine ( - ) ( -. ) (counters ()) before in
          (us, r :: ts, combine ( + ) ( +. ) delta d)
        end
        else (segment ~traced seconds :: us, ts, delta))
      ([], [], no_counters)
      (List.init trace_segments (fun i -> i mod 2 = 1))
  in
  (List.rev untraced, List.rev traced, delta)

let run ~rng ~seconds ~trace =
  let setup_s, srv = timed_setup ~bring_up:start ~tear_down:Server.stop in
  let stream = stream (Rng.split rng) in
  let check_rng = Rng.split rng in
  let e2e w firsts ~attempted ~failed =
    let tuned = latencies (of_source Server.Tuned w.replies) in
    let all = latencies w.replies in
    let geo, virt = quality (List.map (fun r -> (r.job.wname, r.answer)) firsts) in
    [ ("tunes_per_s", ratio (float_of_int (List.length tuned)) w.elapsed, "1/s");
      ("tune_wall_p50_s", Stats.percentile 50.0 tuned, "s");
      ("tune_wall_p90_s", Stats.percentile 90.0 tuned, "s");
      ( "requests_per_s",
        ratio (float_of_int (List.length w.replies)) w.elapsed,
        "1/s" );
      ("latency_p50_s", Stats.percentile 50.0 all, "s");
      ("latency_p99_s", Stats.percentile 99.0 all, "s");
      ("kernel_time_geomean_us", geo, "us");
      ("tuning_virtual_s", virt, "s") ]
    @ common_metrics ~attempted ~failed ~setup_s ~heap:w.heap
  in
  if not trace then begin
    let w = drive srv stream ~seconds in
    let firsts = distinct w.replies in
    let attempted = List.length w.replies + w.errors in
    let metrics = e2e w firsts ~attempted ~failed:w.errors in
    Server.stop srv;
    check_direct check_rng firsts;
    { attempted; failed = w.errors; metrics; spans = None }
  end
  else begin
    let spans = Spans.create () and samples = new_samples () in
    let segment ~traced seconds =
      if traced then drive ~spans ~samples srv stream ~seconds
      else drive srv stream ~seconds
    in
    let untraced, traced, delta = alternate ~seconds segment in
    Server.stop srv;
    let replies ws = List.concat_map (fun w -> w.replies) ws in
    let errors ws = List.fold_left (fun acc w -> acc + w.errors) 0 ws in
    let acc = Layers.create () in
    let firsts = distinct (replies (untraced @ traced)) in
    let traces = ref 0 in
    check_direct check_rng firsts ~decompose:(fun job ->
        incr traces;
        Layers.decomposed spans acc ~lane:clients ~trace:!traces ~sample:true job);
    List.iter
      (fun (_, chain) -> Layers.time_walk acc chain)
      (List.filter
         (fun (w, _) -> List.exists (fun r -> r.job.wname = w) firsts)
         paper_chains);
    let metrics =
      Layers.metrics spans acc
      @ counter_metrics delta ~ops:(List.length (replies traced))
      @ layer_metrics (replies traced) samples
      @ overhead_metrics
          ~untraced:(latencies (replies untraced))
          ~traced:(latencies (replies traced))
    in
    let all = untraced @ traced in
    let probes =
      List.length samples.rtts + List.length samples.depths + samples.sample_errors
    in
    { attempted = List.length (replies all) + errors all + probes;
      failed = errors all + samples.sample_errors;
      metrics;
      spans = Some spans }
  end
