(** Functional (architectural) executor for ERV32 programs, including the SCD
    extension state.

    The executor is execution-driven: it interprets the program's real
    semantics over a register file and a sparse byte-addressed memory. The SCD
    jump-table storage is pluggable so that the same executor can run either
    with the pure architectural model (an unbounded opcode -> target map) or
    against the microarchitectural BTB overlay from {!Scd_core}, whose finite
    capacity is architecturally visible through [bop].

    With a tape attached, each retired instruction is appended to it as one
    {!Event} cell, in the co-simulator's encoding, for timing simulation
    ({!Scd_uarch.Pipeline.consume_tape}). [bop] and [jru] cells carry
    {!Event.flag_dispatch}, as the co-simulator's do; the executor cannot
    tell other dispatcher code from handler code, so no other cell does.
    Calls carry the default link ([-1] = [pc + 4]) and indirect jumps no
    hint. *)

type scd_backend = {
  bop_lookup : opcode:int -> int option;
      (** [Some target] on a JTE hit; the engine may update replacement
          state. *)
  jru_insert : opcode:int -> target:int -> unit;
  jte_flush : unit -> unit;
}

type t

val create : ?scd:scd_backend -> ?tape:Event.tape -> Asm.program -> t
(** A fresh machine at the program's base address with zeroed registers.
    [scd] defaults to the pure architectural model: a growable table that
    never evicts. [tape], when given, receives one cell per retired
    instruction; the caller drains and clears it. Without one the executor
    builds no event at all. *)

val reg : t -> int -> int
(** Architectural register read (32-bit value as a non-negative int). *)

val set_reg : t -> int -> int -> unit

val store_word : t -> int -> int -> unit

val pc : t -> int
val halted : t -> bool
val instructions_retired : t -> int

val rop : t -> (int * bool)
(** Current (Rop.d, Rop.v). *)

type stop_reason = Halted | Step_limit | Decode_fault of { pc : int }

val run : ?max_steps:int -> t -> stop_reason
(** Execute until [halt], the step budget (default 10 million), or a fetch
    outside the program. *)

val step : t -> stop_reason option
(** Single-step; [None] while running. *)
