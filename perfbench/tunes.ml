(* tune-paper and tune-deep: one client calling Tuner.tune in a closed
   loop. *)

open Common

type kind = Paper | Deep

(* Each chain is tuned under this many seeded tuner seeds.  The winner
   and the generation count depend on the seed, so with one seed per
   chain the quality figures and the explore work would jump from run to
   run. *)
let paper_seeds = 4
let deep_seeds = 16

let jobs kind rng =
  match kind with
  | Paper ->
    let order =
      Array.of_list (List.concat_map (fun c -> List.init paper_seeds (fun _ -> c)) paper_chains)
    in
    Rng.shuffle rng order;
    Array.map
      (fun (wname, chain) ->
        { wname; chain; tseed = tuner_seed rng; reservoir = None })
      order
  | Deep ->
    let chain = Configs.deep_chain d7_config in
    Array.init deep_seeds (fun _ ->
        { wname = "D7"; chain; tseed = tuner_seed rng; reservoir = Some 512 })

type loop = {
  walls : float list;
  heap : float list;  (** Heap readings, one per tune. *)
  elapsed : float;
  tunes : int;
  failed : int;
}

(* Tune [jobs] round-robin until [seconds] have passed and at least
   [min_tunes] tunes have run.  The first answer per
   job is kept in [answers]; every repeat must equal it. *)
let closed_loop ~seconds ~min_tunes jobs answers tune =
  let n = Array.length jobs in
  let t0 = now () in
  let walls = ref [] and heap = ref [] and i = ref 0 and failed = ref 0 in
  while now () -. t0 < seconds || !i < min_tunes do
    let k = !i mod n in
    let s = now () in
    let r = tune k jobs.(k) in
    walls := (now () -. s) :: !walls;
    heap := heap_reading () :: !heap;
    (match (r, answers.(k)) with
    | None, _ -> incr failed
    | Some a, None -> answers.(k) <- Some a
    | Some a, Some first ->
      check_same
        ~what:(Printf.sprintf "repeat tune of %s seed %d" jobs.(k).wname jobs.(k).tseed)
        first a);
    incr i
  done;
  { walls = !walls; heap = !heap; elapsed = now () -. t0; tunes = !i; failed = !failed }

let answered jobs answers =
  List.filter_map
    (fun (j, a) -> Option.map (fun a -> (j.wname, a)) a)
    (List.combine (Array.to_list jobs) (Array.to_list answers))

let run ~kind ~rng ~seconds ~trace =
  let setup_s, () = timed_setup ~bring_up:ignore ~tear_down:ignore in
  let jobs = jobs kind (Rng.split rng) in
  let answers = Array.make (Array.length jobs) None in
  let direct _ job = direct_tune job in
  if not trace then begin
    (* Every job runs at least once, so the quality figures cover the
       whole chain set. *)
    let l =
      closed_loop ~seconds ~min_tunes:(Array.length jobs) jobs answers direct
    in
    let p q = Stats.percentile q l.walls in
    let rate = ratio (float_of_int l.tunes) l.elapsed in
    let geo, virt = quality (answered jobs answers) in
    let metrics =
      (* One tune is one request of this workload's single client. *)
      [ ("tunes_per_s", rate, "1/s");
        ("tune_wall_p50_s", p 50.0, "s");
        ("tune_wall_p90_s", p 90.0, "s");
        ("requests_per_s", rate, "1/s");
        ("latency_p50_s", p 50.0, "s");
        ("latency_p99_s", p 99.0, "s");
        ("kernel_time_geomean_us", geo, "us");
        ("tuning_virtual_s", virt, "s") ]
      @ common_metrics ~attempted:l.tunes ~failed:l.failed ~setup_s ~heap:l.heap
    in
    { attempted = l.tunes; failed = l.failed; metrics; spans = None }
  end
  else begin
    (* Each step tunes a job untraced with Tuner.tune, then traced through
       its public calls; the two answers must be equal, and the overhead
       compares the two walls of the same jobs. *)
    let spans = Spans.create () and acc = Layers.create () in
    let sampled = Array.make (Array.length jobs) false in
    let untraced = ref [] and traced = ref [] in
    let delta = ref no_counters and traced_failed = ref 0 in
    let pair k job =
      let s = now () in
      let direct = direct_tune job in
      untraced := (now () -. s) :: !untraced;
      let before = counters () in
      let s = now () in
      (* The top-k lower/compile/sim sample is taken once per job. *)
      let t =
        Layers.decomposed spans acc ~trace:(List.length !traced)
          ~sample:(not sampled.(k)) job
      in
      traced := (now () -. s) :: !traced;
      delta := combine ( + ) ( +. ) !delta (combine ( - ) ( -. ) (counters ()) before);
      sampled.(k) <- true;
      let what = Printf.sprintf "traced %s seed %d vs Tuner.tune" job.wname job.tseed in
      (match (direct, t) with
      | Some d, Some t -> check_same ~what d t
      | Some _, None ->
        incr traced_failed;
        mismatch "%s: the traced decomposition failed" what
      | None, _ -> ());
      direct
    in
    let l = closed_loop ~seconds ~min_tunes:1 jobs answers pair in
    List.iter
      (fun (_, chain) -> Layers.time_walk acc chain)
      (List.sort_uniq
         (fun (a, _) (b, _) -> compare a b)
         (Array.to_list (Array.map (fun j -> (j.wname, j.chain)) jobs)));
    let serve, probe_attempted, probe_failed =
      Serve_mix.probe jobs.(0) ~expected:(Option.get answers.(0))
    in
    let metrics =
      Layers.metrics spans acc
      @ counter_metrics !delta ~ops:l.tunes
      @ serve
      @ overhead_metrics ~untraced:!untraced ~traced:!traced
    in
    { attempted = (2 * l.tunes) + probe_attempted;
      failed = l.failed + !traced_failed + probe_failed;
      metrics;
      spans = Some spans }
  end
