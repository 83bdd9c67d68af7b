(* Shared plumbing: the fixed configuration, workload inputs, the checks'
   failure accounting, the set-up timer and the process-wide counters. *)

module Json = Mcf_util.Json
module Rng = Mcf_util.Rng
module Stats = Mcf_util.Stats
module Configs = Mcf_workloads.Configs

let now = Unix.gettimeofday

(* Every run uses two pool participants whatever the host offers, so
   results from different machines stay comparable; the stamp records the
   host's core count next to it. *)
let jobs = 2

let spec = Mcf_gpu.Spec.a100

(* One unit of tuning work: a built-in workload name (what a serve client
   sends), its chain, the tuner seed and the enumeration bound. *)
type job = {
  wname : string;
  chain : Mcf_ir.Chain.t;
  tseed : int;
  reservoir : int option;
}

(* The 21 chains of Tables II and III. *)
let paper_chains =
  List.map
    (fun (g : Configs.gemm_config) -> (g.gname, Configs.gemm_chain g))
    Configs.gemm_chains
  @ List.map
      (fun (s : Configs.attention_config) -> (s.sname, Configs.attention s))
      Configs.attentions

let d7_config = Option.get (Configs.find_deep "D7")

(* Tuner seeds drawn for a workload stay below 2^30; serve-mix's fresh
   keys live above it, so the two never collide. *)
let tuner_seed rng = Rng.int rng (1 lsl 30)

(* What a tune answered: the fields every correctness check compares. *)
type answer = { cand : string; kernel_s : float; virtual_s : float }

let same a b =
  a.cand = b.cand && Float.equal a.kernel_s b.kernel_s
  && Float.equal a.virtual_s b.virtual_s

let answer_of_outcome (o : Mcf_search.Tuner.outcome) =
  { cand = Mcf_ir.Candidate.serialize o.best.cand;
    kernel_s = o.kernel_time_s;
    virtual_s = o.tuning_virtual_s }

let direct_tune job =
  match
    Mcf_search.Tuner.tune ~seed:job.tseed ?reservoir:job.reservoir spec
      job.chain
  with
  | Ok o -> Some (answer_of_outcome o)
  | Error _ -> None

let show a = Printf.sprintf "%s at %.17g s (virtual %.17g s)" a.cand a.kernel_s a.virtual_s

(* Every mismatch found by a check: each one is a failed operation, makes
   the result [correct: false] and the exit code non-zero.  Only the main
   thread records them, after the client threads have joined. *)
let mismatches = ref 0

let mismatch fmt =
  Printf.ksprintf
    (fun s ->
      incr mismatches;
      Printf.eprintf "perfbench: MISMATCH %s\n%!" s)
    fmt

let check_same ~what expected got =
  if not (same expected got) then
    mismatch "%s: expected %s, got %s" what (show expected) (show got)

(* The paper's two quality outputs over a set of distinct (chain, seed)
   answers: per chain, the mean over its seeds; then the geometric mean of
   the winner kernel time across chains (in us) and the sum of the virtual
   tuning clock across chains (one pass of the chain set). *)
let quality (answers : (string * answer) list) =
  let chains = List.sort_uniq compare (List.map fst answers) in
  let per_chain f =
    List.map
      (fun c ->
        Stats.mean
          (List.filter_map
             (fun (c', a) -> if c' = c then Some (f a) else None)
             answers))
      chains
  in
  ( Stats.geomean (per_chain (fun a -> a.kernel_s)) *. 1e6,
    List.fold_left ( +. ) 0.0 (per_chain (fun a -> a.virtual_s)) )

let ratio a b = if b > 0.0 then a /. b else 0.0

type metric = string * float * string

(* The runtime's major-heap high-water mark, in MB.  The workloads read
   it after every operation and report the median reading: OCaml 5.1
   recomputes the mark from the live domains, so it is not monotone and a
   single end-of-run reading jumps by a fifth from run to run. *)
let heap_reading () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The end-to-end figures every workload reports besides its own. *)
let common_metrics ~attempted ~failed ~setup_s ~heap : metric list =
  [ ("ok_share", 1.0 -. ratio (float_of_int failed) (float_of_int attempted),
     "share");
    ("peak_heap_mb", Stats.median heap, "MB");
    ("setup_s", setup_s, "s") ]

(* Set-up is timed [setup_cycles] times and reported as the median: each
   cycle tears the pool down to one participant (untimed), then times
   spawning the two-participant pool plus [bring_up].  Every cycle but the
   last is torn down again; the last one's value is returned for the
   workload to use. *)
let setup_cycles = 15

let timed_setup ~bring_up ~tear_down =
  let rec go k times =
    Mcf_util.Pool.set_jobs 1;
    ignore (Mcf_util.Pool.get ());
    let t0 = now () in
    Mcf_util.Pool.set_jobs jobs;
    ignore (Mcf_util.Pool.get ());
    let x = bring_up () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (Stats.median times, x)
    else begin
      tear_down x;
      go (k - 1) times
    end
  in
  go setup_cycles []

(* Process-wide counters; the traced segments are measured by their
   deltas. *)
type counters = {
  memo_hits : int;
  memo_misses : int;
  mcache_hits : int;
  mcache_misses : int;
  pool_idle_ns : int;
  pool_steals : int;
  alloc_words : float;
  major_collections : int;
}

let counters () =
  let c = Mcf_obs.Metrics.counter_value in
  let p = Mcf_util.Pool.stats () in
  let g = Gc.quick_stat () in
  { memo_hits = c "model.memo.hits";
    memo_misses = c "model.memo.misses";
    mcache_hits = c "measure.cache.hits";
    mcache_misses = c "measure.cache.misses";
    pool_idle_ns = p.idle_ns;
    pool_steals = p.steals;
    alloc_words = g.minor_words +. g.major_words -. g.promoted_words;
    major_collections = g.major_collections }

(* [combine ( + ) ( +. ) a b] adds two counter sets, [combine ( - ) ( -. )]
   subtracts them. *)
let combine op fop a b =
  { memo_hits = op a.memo_hits b.memo_hits;
    memo_misses = op a.memo_misses b.memo_misses;
    mcache_hits = op a.mcache_hits b.mcache_hits;
    mcache_misses = op a.mcache_misses b.mcache_misses;
    pool_idle_ns = op a.pool_idle_ns b.pool_idle_ns;
    pool_steals = op a.pool_steals b.pool_steals;
    alloc_words = fop a.alloc_words b.alloc_words;
    major_collections = op a.major_collections b.major_collections }

let no_counters =
  { memo_hits = 0;
    memo_misses = 0;
    mcache_hits = 0;
    mcache_misses = 0;
    pool_idle_ns = 0;
    pool_steals = 0;
    alloc_words = 0.0;
    major_collections = 0 }

(* Per-layer figures from a counter delta over [ops] operations (tunes or
   requests). *)
let counter_metrics (d : counters) ~ops : metric list =
  let f = float_of_int in
  let per_op x = ratio x (f ops) in
  [ ( "model.memo_hit_ratio",
      ratio (f d.memo_hits) (f (d.memo_hits + d.memo_misses)),
      "ratio" );
    ( "measure.cache_hit_ratio",
      ratio (f d.mcache_hits) (f (d.mcache_hits + d.mcache_misses)),
      "ratio" );
    ("pool.idle_s", per_op (f d.pool_idle_ns /. 1e9), "s");
    ("pool.steals", per_op (f d.pool_steals), "count");
    ("gc.alloc_mwords_per_op", per_op (d.alloc_words /. 1e6), "Mwords");
    ("gc.major_collections_per_op", per_op (f d.major_collections), "count") ]

(* Tracing overhead: the traced latency p50 against the untraced one,
   from the same run. *)
let overhead_metrics ~untraced ~traced : metric list =
  let p50 = Stats.percentile 50.0 in
  let u = p50 untraced and t = p50 traced in
  [ ("trace.overhead_s", t -. u, "s");
    ("trace.overhead_share", ratio (t -. u) u, "share") ]

(* What a workload run hands back to the main program. *)
type outcome = {
  attempted : int;
  failed : int;  (** Failed or refused operations; mismatches come on top. *)
  metrics : metric list;
  spans : Spans.t option;  (** The traced run's spans. *)
}
