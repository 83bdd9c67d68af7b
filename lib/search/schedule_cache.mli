(** Persistent schedule cache: tune once, reuse.

    Deployment flows tune a (chain, device) pair once and reuse the
    winner: later runs skip tuning entirely (the "efficient deployment"
    concern of the paper's introduction).  This is the one schedule
    store of the repository — [mcfuser tune --cache] and
    [mcfuser serve --schedule-cache] read and write the same
    {!Mcf_util.Shardmap} JSONL file under the same {!key}, so a file
    written by either warm-starts the other. *)

(** The result of one tuning session — everything a client needs to
    deploy the schedule plus the session's funnel accounting.  A cache
    hit replays the original session's answer bit-for-bit. *)
type sched = {
  cand : string;  (** {!Mcf_ir.Candidate.serialize} spelling. *)
  time_s : float;  (** Measured (simulated) kernel time. *)
  virtual_s : float;  (** Tuning cost on the virtual clock. *)
  estimated : int;
  measured : int;
  generations : int;
}

val key :
  ?seed:int -> ?reservoir:int -> Mcf_gpu.Spec.t -> Mcf_ir.Chain.t -> string
(** [device|fp(spec)|fp(chain)|seed=…|res=…]: device name, spec
    fingerprint hash, {!Measure.chain_fp}, and the tuner seed and
    reservoir ([auto]/[none] when unset).  Equal keys run the exact same
    deterministic {!Tuner.tune}, so they may share one cache entry (and,
    in [serve], one in-flight session). *)

val sched_fields : sched -> (string * Mcf_util.Json.t) list
(** The JSON object fields of a schedule: the served job's ["result"]
    document and the cache-file line after its ["key"]. *)

val sched_of_json : Mcf_util.Json.t -> sched option
(** Inverse of {!sched_fields} (extra members such as ["key"] are
    ignored). *)

val sched_of_outcome : Tuner.outcome -> sched

val tune_with_cache :
  cache_file:string ->
  ?seed:int ->
  ?reservoir:int ->
  ?measure:Measure.t ->
  Mcf_gpu.Spec.t ->
  Mcf_ir.Chain.t ->
  (Tuner.outcome option * sched, Tuner.error) result
(** Load [cache_file] and look up {!key}; on a miss, run {!Tuner.tune}
    with the same arguments, add the result and save the whole map back
    (other entries are kept).  The outcome is [None] on a cache hit.
    Counts [cache.hits]/[cache.misses]. *)
