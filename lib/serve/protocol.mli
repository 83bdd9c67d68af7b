(** Wire format of the tuning service: request parsing.  The served
    schedule record and the coalescing/cache key live in
    {!Mcf_search.Schedule_cache}.

    A [POST /tune] body is one JSON object:

    {v
    { "workload": "G1",            // a built-in workload name, or
      "chain": { "kind": "gemm",   // gemm | mlp | attention | gemm3
                 "batch": 1, "m": 256, "n": 128, "k": 64, "h": 64,
                 "p": 64 },        // gemm3 only
      "device": "A100",            // optional, default A100
      "seed": 7,                   // optional tuner seed
      "reservoir": 512 }           // optional enumeration bound
    v}

    exactly one of ["workload"] / ["chain"] must be present.  The full
    schema (including responses) is documented in DESIGN.md. *)

type tune_request = {
  workload : string;  (** Display label: workload name or chain name. *)
  chain : Mcf_ir.Chain.t;
  spec : Mcf_gpu.Spec.t;
  seed : int option;
  reservoir : int option;
}

val chain_of_workload : string -> (Mcf_ir.Chain.t, string) result
(** Resolve a built-in workload name (G1-G12, S1-S9, D5-D8, network
    names, mha aliases) — the serve-side twin of the CLI's resolver. *)

val parse_tune_request : string -> (tune_request, string) result
(** Parse a [POST /tune] body.  All errors are client errors (400). *)
