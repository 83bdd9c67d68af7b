(** Sharded, string-keyed concurrent map with per-shard LRU eviction and
    in-flight computation dedup.

    Keys are distributed over N independent shards (own mutex, hashtable
    and LRU list each), so lookups on different shards never contend —
    the multi-tenant backing store for content-addressed caches shared
    across pool domains (the {!Mcf_search} measurement and schedule
    caches, the latter also behind [mcfuser serve]).

    {!find_or_compute} guarantees a key's thunk runs at most once at a
    time process-wide: the first caller installs a pending placeholder
    and computes {e outside} the shard lock; concurrent callers for the
    same key wait on the shard's condition variable and receive the
    computed value.  Pending entries are never evicted; the LRU bound
    applies to completed entries only. *)

type 'a t

(** How {!find_or_compute} obtained its value: [Hit] — already cached;
    [Waited] — another domain was computing it, we blocked for the
    result; [Computed] — this caller ran the thunk. *)
type outcome = Hit | Waited | Computed

val create : ?shards:int -> ?capacity_per_shard:int -> unit -> 'a t
(** [shards] defaults to 16; [capacity_per_shard] (completed entries
    kept per shard, least-recently-used evicted beyond it) defaults to
    unbounded.  @raise Invalid_argument when either is < 1. *)

val shard_count : 'a t -> int

val find : 'a t -> string -> 'a option
(** [None] for absent {e and} pending keys (never blocks); a hit
    freshens the entry's LRU position. *)

val set : 'a t -> string -> 'a -> unit
(** Insert or overwrite (waking any waiters if the key was pending) —
    the warm-start path when loading a persisted cache. *)

val find_or_compute : 'a t -> string -> (unit -> 'a) -> outcome * 'a
(** Cached value, or run the thunk (outside the shard lock) and cache
    its result.  If the thunk raises, the pending entry is removed,
    waiters are woken (one of them recomputes), and the exception
    propagates to this caller only. *)

val length : 'a t -> int
(** Completed entries across all shards. *)

val fold : 'a t -> (string -> 'a -> 'acc -> 'acc) -> 'acc -> 'acc
(** Fold over a snapshot of completed entries (order unspecified); [f]
    runs outside the shard locks. *)

(** {1 Persistence}

    The one on-disk format of every persisted cache: JSONL, one
    [{"key": k, ...fields}] object per completed entry.  A file written
    for one map loads into any other map with the same value codec. *)

val save : encode:('a -> (string * Json.t) list) -> 'a t -> string -> int
(** Write the completed entries, sorted by key (shard order is not
    deterministic), to a temp file renamed over [path], so readers never
    see a partial file.  [encode] gives the fields that follow ["key"].
    Returns the number of lines written. *)

val load : decode:(Json.t -> 'a option) -> 'a t -> string -> int * int
(** Warm-start from a {!save}d file: [(loaded, malformed)].  [decode]
    receives the whole line object; lines without a string ["key"] or
    rejected by [decode] are counted and skipped ({!Json.fold_jsonl}).
    A missing file is [(0, 0)]. *)
