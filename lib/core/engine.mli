(** The Short-Circuit Dispatch engine — the paper's primary contribution.

    The engine owns the architecturally-visible jump-table view of a shared
    {!Scd_uarch.Btb}: [bop] looks up a jump-table entry (JTE) keyed by an
    opcode, [jru] inserts one, [jte_flush] invalidates them all. Because the
    BTB is shared with the {!Scd_uarch.Pipeline} timing model, JTEs and
    ordinary branch-target entries contend for the same physical ways, with
    JTE replacement priority — the contention the paper analyses in
    Sections IV and VI-C.

    Unlike a predictor, JTE contents are architecturally visible: a [bop]
    hit *redirects execution*. Trace generators must therefore consult
    {!bop_target} while producing the instruction stream (fast path on a hit, slow
    path on a miss) — the outcome cannot be bolted on afterwards.

    Multiple jump tables (Section IV) are supported through branch IDs: each
    table's opcodes live in a disjoint key range, mirroring the paper's
    replicated (Rop, Rmask, Rbop-pc) register sets.

    {!context_switch} models the paper's preferred OS policy of executing
    [jte_flush] on every context switch; the caller decides when one
    happens (the co-simulation driver fires it every [n] retired
    instructions). *)

type t

type stats = {
  mutable bop_lookups : int;
  mutable bop_hits : int;
  mutable jru_inserts : int;
  mutable flushes : int;
  mutable context_switch_flushes : int;
}

val create : ?tables:int -> Scd_uarch.Btb.t -> t
(** [tables] is the number of simultaneously-tracked jump tables (default 1,
    max 16). *)

val no_target : int
(** Miss sentinel for {!bop_target} (equals {!Scd_uarch.Btb.no_target}). *)

val bop_target : t -> table:int -> opcode:int -> int
(** Allocation-free architectural [bop] lookup for [opcode] in jump table
    [table]: the JTE target on a hit, {!no_target} on a miss. [table] is
    a required argument: an optional one costs its caller a [Some] box
    per call wherever the call is not inlined. *)

val jru_code : t -> table:int -> opcode:int -> target:int -> unit
(** Allocation-free architectural [jru]: insert a JTE when [opcode] is
    non-negative (i.e. Rop was valid), honouring JTE priority and the BTB's
    JTE cap; a negative opcode inserts nothing. *)

val jte_flush : t -> unit

val context_switch : t -> unit
(** A context switch: count it in [context_switch_flushes] and
    {!jte_flush}. *)

val jte_population : t -> int
val stats : t -> stats
val btb : t -> Scd_uarch.Btb.t

val copy_stats : stats -> stats
(** Independent snapshot of a stats record. *)

val stats_to_assoc : stats -> (string * int) list
val stats_of_assoc : (string * int) list -> (stats, string) result
(** Codec pair over one shared field table; decode of encode is the identity
    and a missing field is an [Error]. *)

val set_auditor : (Scd_uarch.Btb.t -> unit) option -> unit
(** Checked mode: install (or remove, with [None]) a process-wide auditor
    invoked with the engine's BTB after every architectural write — each
    [jru] insertion and each {!jte_flush}, context-switch flushes included.
    The {!Scd_check} differential checker installs its invariant auditor
    here so every co-simulated run is validated at each mutation; the hook
    must raise to report a violation. Not domain-safe: intended for the
    sequential checker and tests, not for pool runs. *)

val exec_backend : ?table:int -> t -> Scd_isa.Exec.scd_backend
(** Adapt the engine as the SCD backend of the ERV32 functional executor, so
    that execution-driven runs share the same finite BTB overlay. *)
