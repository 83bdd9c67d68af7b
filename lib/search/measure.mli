(** Batched measurement engine with a sharded content-addressed cache.

    Measurement dominates tuning wall time once enumeration and
    estimation are parallel: the evolutionary loop hands each
    generation's fresh top-k here as one batch instead of simulating
    point-wise.  The engine runs in two stages:

    + {b parallel} — per candidate: lower (forcing the entry's lazy
      cell), compile, and run the deterministic simulator on the shared
      {!Mcf_util.Pool}, one candidate per chunk;
    + {b sequential drain} in rank order — virtual-clock charges (in
      float addition order), the caller's [commit] callback (recorder
      events, measured-table fills).

    Because stage 1 is pure and the simulator is deterministic, every
    observable — funnel counts, recordings, tuner results, virtual time
    — is bit-identical to the old sequential path at any [--jobs].

    The optional cache is content-addressed: the key combines the
    {!Mcf_gpu.Spec.fingerprint}, a hash of the
    {!Mcf_ir.Chain.fingerprint}, the structural-pass flags, and the
    rule-1 canonical candidate form ({!Mcf_ir.Tiling.sub_tiling} +
    sorted tile vector), so a hit is valid by construction.  Hits skip
    the simulation but are charged to the clock identically (virtual-
    time accounting is a model of real hardware, where the measurement
    would still have run); the wall-time saving shows up in the
    [tuner.measure] phase and the [measure.cache.{hits,misses,
    inflight_waits}] counters.  The backing store is a
    {!Mcf_util.Shardmap}: per-shard locks, LRU-bounded, and in-flight
    dedup so two domains never simulate the same key concurrently. *)

val log_src : Logs.src
(** Log source ["mcfuser.measure"]. *)

(** {1 Measurement cache} *)

type cache = float option Mcf_util.Shardmap.t
(** Content-addressed measured kernel times; [None] records a cached
    compile/launch failure. *)

val cache_create : unit -> cache
(** 16 shards of 65536 entries each (LRU beyond that). *)

val time_fields : float option -> (string * Mcf_util.Json.t) list
(** The cache's line codec for {!Mcf_util.Shardmap.save}:
    [{"key": ..., "time_s": float|null}].  Floats round-trip exactly, so
    a warm-started run reproduces cached times bit-for-bit. *)

val time_of_json : Mcf_util.Json.t -> float option option
(** Inverse of {!time_fields}, for {!Mcf_util.Shardmap.load}. *)

(** {1 Engine} *)

type t

val create : ?cache:cache -> ?sequential:bool -> Mcf_gpu.Spec.t -> t
(** An engine measuring on one device.  [sequential] pins stage 1 to
    the calling domain ([--measure-jobs 1] — results are bit-identical
    either way, this only trades wall time for determinism paranoia). *)

val spec : t -> Mcf_gpu.Spec.t

val cache : t -> cache option

val key_with :
  spec_fp:string ->
  chain_fp:string ->
  Space.ctx ->
  Mcf_ir.Candidate.t ->
  string
(** The raw cache key; exposed for tests and the fuzz oracle. *)

val chain_fp : Mcf_ir.Chain.t -> string
(** Hex-hashed {!Mcf_ir.Chain.fingerprint} (the key's chain component). *)

val lookup : t -> Space.entry -> float option option
(** Peek the cache without simulating: [Some result] on a hit ([result]
    itself is [None] for a cached compile/launch failure). *)

val run_batch :
  t ->
  clock:Mcf_gpu.Clock.t ->
  compile_cost_s:float ->
  repeats:int ->
  commit:(int -> float option -> unit) ->
  (int * Space.entry) list ->
  unit
(** Measure a rank-ordered batch of [(id, entry)] items.  Stage 1 runs
    in parallel (unless the engine is [sequential]); the drain then, in
    list order and per item: charges one compile, charges the
    measurement when it succeeded, and calls [commit id result].
    Duplicate-key items within one batch are deduplicated by the
    in-flight table when a cache is attached; callers wanting
    exactly-once commits per id must dedup ids themselves (the explore
    loop does). *)
