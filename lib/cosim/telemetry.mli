(** Run telemetry for the co-simulator: interval-sampled time series,
    cycles-per-bytecode and mispredict-burst histograms, and per-dispatch-
    site / per-opcode attribution.

    Create one [t], pass it to {!Driver.run} via [?telemetry], then read the
    collected data or export it. The driver installs a {!Scd_obs.Probe} into
    the pipeline and wraps its bytecode callback, so an un-instrumented run
    (no telemetry) keeps the allocation-free hot path — the only residual
    cost is the probe's null check.

    Sampling: every [interval] retired native instructions, the sampler
    snapshots the deltas of {!Scd_uarch.Stats}, {!Scd_uarch.Btb.stats} and
    {!Scd_core.Engine.stats} since the previous sample into one time-series
    row (plus derived per-interval IPC and [bop] hit rate, and the
    instantaneous JTE population). A final partial row is flushed at run
    end, so every delta column sums exactly to its end-of-run aggregate. *)

type t

val create : ?interval:int -> unit -> t
(** [interval] defaults to 10_000 retired instructions. Raises
    [Invalid_argument] when non-positive. A [t] records exactly one run. *)

val interval : t -> int

val columns : string list
(** Time-series schema, in column order:
    cumulative [instructions] and [cycles]; per-interval deltas
    [d_instructions], [d_cycles], [d_dispatch_instructions],
    [d_mispredicts], [d_dispatch_mispredicts], [d_bop_lookups],
    [d_bop_hits], [d_icache_misses], [d_dcache_misses], [d_jte_inserts],
    [d_jte_evictions], [d_jte_flushes]; derived [bop_hit_rate] and [ipc]
    over the interval; instantaneous [jte_population]. *)

(* --- driver-facing wiring (called by {!Driver.run}) --- *)

val attach : t -> pipeline:Scd_uarch.Pipeline.t -> engine:Scd_core.Engine.t -> unit
(** Resolve the sampling closures against a run's pipeline/engine and
    install the pipeline probe. Raises [Invalid_argument] if [t] was
    already attached (one telemetry record per run). *)

val note_bytecode :
  t ->
  site:int ->
  opcode:int ->
  cycles:int ->
  instructions:int ->
  mispredicts:int ->
  unit
(** Attribute one bytecode's costs to its dispatch site ([0]=common,
    [1]=call, [2]=branch) and opcode, and feed the cycles-per-bytecode
    histogram. *)

val finish : t -> unit
(** Flush the trailing partial interval and any open mispredict burst.
    Idempotent. *)

(* --- collected data --- *)

val series : t -> Scd_obs.Series.t
val cycles_per_bytecode : t -> Scd_obs.Histogram.t

val burst_lengths : t -> Scd_obs.Histogram.t
(** Lengths of mispredict bursts: runs of flush-penalty mispredictions each
    at most 64 retired instructions from the previous one. Context-switch
    JTE flushes show up here as long bursts. *)

val site_attr : t -> Scd_obs.Attribution.t
val opcode_attr : t -> Scd_obs.Attribution.t

val site_name : int -> string

(* --- exporters --- *)

val to_csv : t -> string
(** The time series as CSV (see {!columns}). *)

val to_chrome_trace : ?process_name:string -> t -> string
(** Chrome trace-event JSON (JSON Object Format): counter events per sample
    with the simulated cycle count as timestamp, instant events for
    intervals that saw JTE flushes, and under ["otherData"] the attribution
    tables, histogram summaries and a ["timeline"] note (simulated cycles).
    Loadable in [chrome://tracing] and Perfetto. *)
