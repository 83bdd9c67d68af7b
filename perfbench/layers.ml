(* The traced tune: [Tuner.tune] broken into the public calls it makes,
   each under a benchmark span, plus the per-layer figures taken around
   them. *)

open Common
module Space = Mcf_search.Space
module Explore = Mcf_search.Explore

type acc = {
  mutable tilings_raw : int;
  mutable tilings_kept : int;
  mutable points : float;
  mutable valid : int;
  mutable generations : int;
  mutable estimated : int;
  mutable measured : int;
  mutable walks : float list;  (** Space.tilings seconds, one per chain. *)
  mutable lower : float * int;  (** Seconds, items. *)
  mutable compile : float * int;
  mutable sim : float * int;
}

let create () =
  { tilings_raw = 0;
    tilings_kept = 0;
    points = 0.0;
    valid = 0;
    generations = 0;
    estimated = 0;
    measured = 0;
    walks = [];
    lower = (0.0, 0);
    compile = (0.0, 0);
    sim = (0.0, 0) }

let add (s, n) dt k = (s +. dt, n + k)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Lower, compile and simulate the [top_k] best-estimated streamed
   entries, each stage timed over the whole batch.  Lowering is redone
   from the candidate so the entries' own cached lowering is not what is
   timed. *)
let sample_top_k acc (entries : Space.entry list) scores =
  let k = Explore.default_params.top_k in
  let ranked =
    List.mapi (fun i e -> (fst scores.(i), i, e)) entries
    |> List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j))
    |> List.filteri (fun i _ -> i < k)
    |> List.map (fun (_, _, e) -> e)
  in
  let lowered, dt =
    timed (fun () ->
        List.map
          (fun (e : Space.entry) ->
            Mcf_ir.Lower.lower ~rule1:e.ctx.rule1
              ~dead_loop_elim:e.ctx.dead_loop_elim ~hoisting:e.ctx.hoisting
              ~elem_bytes:e.ctx.elem_bytes e.ctx.chain e.cand)
          ranked)
  in
  acc.lower <- add acc.lower dt (List.length lowered);
  let kernels, dt =
    timed (fun () ->
        List.filter_map
          (fun l -> Result.to_option (Mcf_codegen.Compile.compile spec l))
          lowered)
  in
  acc.compile <- add acc.compile dt (List.length lowered);
  let (), dt =
    timed (fun () ->
        List.iter (fun kn -> ignore (Mcf_gpu.Sim.run spec kn)) kernels)
  in
  acc.sim <- add acc.sim dt (List.length kernels)

(* The public calls [Tuner.tune] makes, in its order and with its seed:
   enumerate, explore over the streamed scores, compile the winner.
   [sample] additionally times the top-k lower/compile/sim stages, after
   the tune's own spans have closed. *)
let decomposed spans acc ?(lane = 0) ~trace ~sample job =
  let rng = Rng.create job.tseed in
  let clock = Mcf_gpu.Clock.create () in
  let result =
    Spans.span spans ~lane ~trace "tuner.tune" (fun root ->
        let span ?inner name f =
          Spans.span spans ~lane ~trace ~parent:root ?inner name f
        in
        let precheck = ref [] in
        let entries, scores, funnel =
          span ~inner:precheck "space.enumerate_scored" (fun _ ->
              Space.enumerate_scored
                ~on_phase:(fun n d -> precheck := (n, d) :: !precheck)
                ?reservoir:job.reservoir spec job.chain)
        in
        (* Tuner.tune charges this fixed framework start-up cost to the
           virtual clock between enumeration and exploration. *)
        Mcf_gpu.Clock.charge clock 4.0;
        let measure = ref [] in
        match
          span ~inner:measure "explore.run" (fun _ ->
              Explore.run ~scores
                ~on_phase:(fun n d -> measure := (n, d) :: !measure)
                ~rng ~clock spec entries)
        with
        | None -> None
        | Some r -> (
          match
            span "compile.compile" (fun _ ->
                Mcf_codegen.Compile.compile spec (Space.lowered r.best))
          with
          | Error _ -> None
          | Ok _ -> Some (r, entries, scores, funnel)))
  in
  Option.map
    (fun ((r : Explore.result), entries, scores, (f : Space.funnel)) ->
      acc.tilings_raw <- acc.tilings_raw + f.tilings_raw;
      acc.tilings_kept <- acc.tilings_kept + f.tilings_rule2;
      acc.points <- acc.points +. f.candidates_rule3;
      acc.valid <- acc.valid + f.candidates_valid;
      acc.generations <- acc.generations + r.stats.generations;
      acc.estimated <- acc.estimated + r.stats.estimated;
      acc.measured <- acc.measured + r.stats.measured;
      if sample then sample_top_k acc entries scores;
      { cand = Mcf_ir.Candidate.serialize r.best.cand;
        kernel_s = r.best_time_s;
        virtual_s = Mcf_gpu.Clock.elapsed_s clock })
    result

(* Time the rules 1-2 tiling walk of [chain] on its own. *)
let time_walk acc chain =
  let _, dt = timed (fun () -> Space.tilings Space.default_options chain) in
  acc.walks <- dt :: acc.walks

(* Per-layer figures of the traced tunes, means per tune unless named as
   a rate or ratio.  The self times (tuner.glue_s, the two *_self_s, the
   sub-phases and tuner.codegen_s) add up to the mean traced tune. *)
let metrics spans acc : metric list =
  let all = Spans.spans spans in
  let tunes =
    List.length (List.filter (fun s -> s.Spans.name = "tuner.tune") all)
  in
  let self = Spans.self_times spans in
  let self_of name =
    match List.find_opt (fun (n, _, _) -> n = name) self with
    | Some (_, _, total) -> total
    | None -> 0.0
  in
  let total name =
    List.fold_left
      (fun acc s -> if s.Spans.name = name then acc +. Spans.duration s else acc)
      0.0 all
  in
  let per_tune x = ratio x (float_of_int tunes) in
  let rate (s, n) = ratio (float_of_int n) s in
  [ ("space.tilings_s", Stats.mean acc.walks, "s");
    ( "space.tilings_kept_ratio",
      ratio (float_of_int acc.tilings_kept) (float_of_int acc.tilings_raw),
      "ratio" );
    ("space.enumerate_s", per_tune (total "space.enumerate_scored"), "s");
    ("space.enumerate_self_s", per_tune (self_of "space.enumerate_scored"), "s");
    ("space.precheck_s", per_tune (self_of "space.precheck"), "s");
    ( "space.points_per_s",
      ratio acc.points (total "space.enumerate_scored"),
      "1/s" );
    ("space.valid_ratio", ratio (float_of_int acc.valid) acc.points, "ratio");
    ("explore.run_s", per_tune (total "explore.run"), "s");
    ("explore.self_s", per_tune (self_of "explore.run"), "s");
    ( "explore.generations",
      per_tune (float_of_int acc.generations),
      "count" );
    ("explore.estimated", per_tune (float_of_int acc.estimated), "count");
    ("explore.measured", per_tune (float_of_int acc.measured), "count");
    ("measure.batch_s", per_tune (self_of "tuner.measure"), "s");
    ("lower.per_s", rate acc.lower, "1/s");
    ("compile.per_s", rate acc.compile, "1/s");
    ("sim.per_s", rate acc.sim, "1/s");
    ("tuner.codegen_s", per_tune (self_of "compile.compile"), "s");
    ("tuner.glue_s", per_tune (self_of "tuner.tune"), "s") ]
