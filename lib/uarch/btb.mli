(** Branch target buffer with the SCD jump-table overlay.

    A set-associative array of (tag, target) entries. Each entry carries the
    paper's J/B bit: when set, the entry is a jump-table entry (JTE) keyed by
    an opcode; when clear, it is a normal branch-target entry keyed by a PC
    (or, for VBBI, a PC+value hash). JTE and branch entries share the same
    physical storage but are looked up in disjoint namespaces.

    Keys live in a word-aligned domain: PC keys are byte addresses of
    instructions; opcode keys must be pre-shifted by the caller (the SCD
    engine passes [opcode lsl 2]) so both key classes spread over sets the
    same way. The index is [(key lsr 2) mod sets] and the tag is the
    remaining high bits.

    Replacement per the paper's Table II: round-robin (gem5 MinorCPU config)
    or LRU (Rocket config). JTEs have replacement priority: an incoming JTE
    may evict a branch entry, but an incoming branch entry never evicts a
    JTE. An optional cap bounds the number of live JTEs (Section VI-C). *)

type replacement = Round_robin | Lru

type t

type stats = {
  mutable branch_lookups : int;
  mutable branch_hits : int;
  mutable jte_lookups : int;
  mutable jte_hits : int;
  mutable jte_inserts : int;
  mutable branch_entries_evicted_by_jte : int;
  mutable branch_insert_blocked_by_jte : int;
      (** Branch-entry insertions that found every candidate way holding a
          JTE and were dropped (the contention cost of the overlay). *)
  mutable jte_evictions : int;
      (** Valid JTEs displaced from their way by a below-cap JTE insertion
          (necessarily by another JTE, given JTE priority). The three ways a
          JTE can die are disjoint counters: capacity evictions here,
          cap-triggered replacements in {!field-jte_cap_replacements}, and
          {!flush_jtes} invalidations in the SCD engine's flush counters —
          an event never bumps two of them. *)
  mutable jte_cap_replacements : int;
      (** JTE insertions that, at the cap, replaced another JTE instead of
          growing the population. Cap replacements are {e not} counted as
          {!field-jte_evictions}. *)
  mutable jte_cap_rejects : int;
      (** JTE insertions dropped because the cap was reached and no JTE lived
          in the target set. *)
}

val create :
  entries:int -> ways:int -> replacement:replacement -> ?jte_cap:int -> unit -> t
(** [entries] is the total entry count ([entries / ways] sets, both powers of
    two; [ways = entries] gives a fully-associative table). *)

val no_target : int
(** Sentinel returned by {!lookup_target}/{!probe_target} on a miss
    ([min_int], outside the simulated address space). *)

val lookup_target : t -> jte:bool -> key:int -> int
(** The predicted/stored target on a tag hit in the requested namespace,
    {!no_target} on a miss; allocates nothing. Updates stats and LRU
    state. *)

val probe_target : t -> jte:bool -> key:int -> int
(** As {!lookup_target} but with no stats or replacement-state side
    effects. *)

val insert : t -> jte:bool -> key:int -> target:int -> unit
(** Install or update an entry. Honours JTE priority and the JTE cap. *)

val flush_jtes : t -> unit
(** [jte_flush]: invalidate every JTE, leaving branch entries intact. *)

val jte_population : t -> int
(** Number of valid JTEs currently resident. *)

val stats : t -> stats
val entries : t -> int
val ways : t -> int
val sets : t -> int
val replacement : t -> replacement
val jte_cap : t -> int option

type entry_view = {
  view_valid : bool;
  view_jte : bool;
  view_tag : int;
  view_target : int;
}
(** Read-only snapshot of one way, for auditing. *)

val view : t -> entry_view array array
(** Pure [sets × ways] snapshot of the table, for the {!Scd_check} invariant
    auditor and reference-model comparison. No side effects on replacement
    state or stats. *)

val copy_stats : stats -> stats
(** Independent snapshot of a stats record (see {!Scd_uarch.Stats.copy}). *)

val stats_to_assoc : stats -> (string * int) list
val stats_of_assoc : (string * int) list -> (stats, string) result
(** Codec pair over one shared field table; [stats_of_assoc (stats_to_assoc s)]
    is the identity and a missing field is an [Error]. *)
