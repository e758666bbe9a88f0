(** Host-runtime profiler: nestable scoped spans over the *simulator
    process* itself.

    Where {!Scd_cosim.Telemetry} observes the simulated embedded core (in
    simulated cycles), [Prof] observes the OCaml runtime executing the
    simulation: each span captures wall-clock nanoseconds (monotonic clock)
    plus the deltas of every [Gc] counter — minor/major/promoted words,
    minor/major collections, compactions — so allocation can be attributed
    to a phase or subsystem before optimising it.

    Pay-for-what-you-use: instrumentation sites call {!span} (or
    {!leaf_begin}/{!leaf_end}) unconditionally. While no profile is
    {!activate}d the call is a single ref load and match — no allocation,
    near-zero cost — which the [prof-span-off-1k] microbenchmark and a
    zero-allocation test pin down. Costs (clock reads, [Gc.quick_stat],
    frame records) are only paid while a profile is active.

    Spans aggregate by *path*: nested spans concatenate names with ["/"]
    (["run/execute"]), so the same helper instrumented once reports under
    every caller separately. Each domain keeps its own span stack; pool
    workers merge into the shared aggregate table under a mutex. Read
    results only after {!deactivate}. *)

type gc_deltas = {
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
}

type span = {
  path : string;  (** Full nesting path, e.g. ["run/execute"]. *)
  name : string;  (** Leaf name, e.g. ["execute"]. *)
  depth : int;  (** Number of enclosing spans ([0] for roots). *)
  mutable calls : int;
  mutable wall_ns : int;  (** Total across calls. *)
  gc : gc_deltas;  (** Summed counter deltas across calls. *)
  latency : Histogram.t;
      (** Per-call wall-clock latency in microseconds (log2 buckets) — the
          per-cell latency percentiles of a sweep fall out of this. *)
}

type event = {
  ev_path : string;
  ev_depth : int;
  ev_start_ns : int;  (** Relative to the profile's creation. *)
  ev_dur_ns : int;
}
(** One completed span call, for Chrome-trace export. *)

type t

val create : ?max_events:int -> unit -> t
(** A fresh profile. At most [max_events] (default 65 536) individual span
    calls are kept for trace export; aggregation is unbounded. *)

val activate : t -> unit
(** Install [t] as the process-wide active profile. Raises
    [Invalid_argument] if a different profile is already active.
    Idempotent for the same profile. *)

val deactivate : unit -> unit
val active : unit -> t option
val enabled : unit -> bool

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; while a profile is active, its wall time and
    GC deltas are recorded under [name] nested below the innermost open
    span of the current domain. The span is recorded (and the stack
    unwound) even when [f] raises; the exception is re-raised. Disabled:
    exactly [f ()]. *)

type leaf
(** A measurement started by {!leaf_begin} whose name is chosen at
    {!leaf_end} — for sites where the label depends on the outcome (cache
    hit vs miss). Leaves do not join the span stack, so they cannot have
    children; an un-ended leaf records nothing. *)

val leaf_begin : unit -> leaf
(** Allocation-free while disabled (returns a shared token). *)

val leaf_end : leaf -> string -> unit

val spans : t -> span list
(** All spans, in the order their first calls completed (children before
    parents). Read after {!deactivate}. *)

val find : t -> string -> span option
(** Look up a span by full path. *)

val roots : t -> span list
val children : t -> span -> span list
(** Direct children: depth + 1 and path-prefix match. *)

val attributed : t -> span -> int * float
(** [(wall_ns, minor_words)] summed over the direct children of a span —
    subtract from the span's own totals for the unattributed remainder. *)

val iter_events : t -> (event -> unit) -> unit
val dropped_events : t -> int
(** Span calls beyond [max_events] whose individual events were dropped
    (their aggregates are still counted). *)

val host : unit -> Json.value
(** The host a profile or benchmark ran on, as the ["host"] object of
    [scdsim prof --json] and bench [--json]: [ocaml] (version), [word_size],
    [os_type] and [recommended_domains]. Allocation counts compare only
    across runs with the same runtime and word size. *)
