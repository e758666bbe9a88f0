(** In-order pipeline timing model.

    The pipeline consumes a program-order stream of {!Scd_isa.Event.t} and
    accumulates cycles and statistics. It does not model wrong-path
    execution; a misprediction charges the configured flush penalty, which is
    the dominant cost on the shallow in-order cores the paper targets.

    Cost model per event:
    - one issue slot (dual-issue pairs two consecutive instructions unless
      either is a memory operation following another memory operation in the
      same cycle, or the first is a control instruction);
    - an I-cache + I-TLB access per fetched block (sequential fetches within
      one block are free);
    - D-cache + D-TLB access for loads/stores; misses charge L2/DRAM latency;
    - conditional branches consult the direction predictor; mispredictions
      flush; taken branches with a BTB target miss redirect at decode
      ([direct_bubble]);
    - direct jumps/calls charge [direct_bubble] on a BTB target miss;
    - indirect jumps/calls consult the configured indirect scheme
      (PC-indexed BTB, VBBI, or TTC); returns use the RAS;
    - [bop] charges Rop-not-ready stall bubbles (the paper's stalling
      scheme) and [bop_hit_bubble] on a hit; a miss falls through for free;
    - [jru] times like an indirect jump (its JTE insertion is performed by
      the SCD engine, not here).

    The BTB is injected at construction so that the SCD engine
    ({!Scd_core.Engine}) and the pipeline share one physical table — JTE
    insertions evict branch entries and vice versa, which is the paper's
    central contention effect. *)

type t

val create :
  ?btb:Btb.t -> ?indirect:Indirect.scheme -> Config.t -> t
(** [btb] defaults to a fresh table built from the config (including its JTE
    cap). [indirect] defaults to [Pc_btb]. *)

val config : t -> Config.t
val btb : t -> Btb.t
val stats : t -> Stats.t

val set_probe : t -> Scd_obs.Probe.t -> unit
(** Install telemetry hooks ({!Scd_obs.Probe}): [on_retire] fires after
    every consumed instruction has been fully accounted, [on_mispredict] on
    every flush-penalty misprediction. The default is [Probe.null], and with
    it installed the hot path performs a single physical-equality check and
    allocates nothing. *)

val probe : t -> Scd_obs.Probe.t

val consume : t -> Scd_isa.Event.t -> unit
(** Account one retired instruction. Convenience shim over
    {!consume_scratch}: the event is unpacked into an internal scratch
    record first. *)

val consume_scratch : t -> Scd_isa.Event.scratch -> unit
(** Account one retired instruction described by a caller-owned mutable
    scratch record, without allocating. Co-simulation delivers events
    through {!consume_tape}; this entry point remains as the staging step
    of the boxed {!consume} shim and as a reference for benchmarks and
    tests. The pipeline does not retain the scratch across calls. *)

val consume_tape : t -> Scd_isa.Event.tape -> unit
(** Account every cell of a flat event tape in order, reading each cell's
    four words straight from the tape buffer (no intermediate record).
    This is co-simulation's event delivery path. Allocation-free; the
    caller clears and refills the tape between batches. Honours the retire
    boundary, if one is armed. *)

val set_retire_boundary : t -> every:int -> (unit -> unit) -> unit
(** [set_retire_boundary t ~every f] arms a retire boundary: {!consume_tape}
    calls [f] each time the retired-instruction count reaches another
    multiple of [every] past the count at arming, right after the
    instruction that reaches it. A {!Scd_isa.Event.tag_plain_run} cell that
    crosses a boundary is consumed in pieces with [f] between them, so
    statistics and callback order are exactly those of the same
    instructions fed as one plain cell each. [f] must not touch the tape
    being drained. Instructions accounted through {!consume} or
    {!consume_scratch} count toward the boundary, but a boundary they reach
    fires only at the start of the next {!consume_tape}. Re-arming replaces
    the previous boundary. Co-simulation uses this for the OS
    context-switch model's periodic JTE flush. Raises [Invalid_argument]
    when [every <= 0]. *)
