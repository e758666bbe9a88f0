(** Dynamic instruction events, on a flat tape.

    A simulated run — whether execution-driven (the ERV32 functional
    executor, {!Exec}) or trace-driven (the VM co-simulator) — is a stream
    of retired instructions in program order. The timing model
    ({!Scd_uarch.Pipeline.consume_tape}) never needs architectural register
    values, only PCs, control-flow outcomes and memory addresses, so each
    instruction is one 4-word cell of a preallocated [int array]:
    [pc; flags; arg1; arg2].

    - [pc] is the instruction's byte address.
    - [flags] packs one [tag_*] constant in bits 0-3 and the [flag_*]
      booleans in bits 4-8. A flag the tag does not define is never read.
    - [arg1] is the memory address (mem tags) or branch target (control
      tags); [0] where the tag defines none.
    - [arg2] is the hint, opcode or call link; [-1] = none.

    The producer batches the cells of one bytecode and the consumer drains
    them in order, so steady-state event delivery touches no boxed values
    at all. The buffer doubles on overflow, which stops happening once the
    largest per-batch burst has been seen. *)

(** {2 Tags} *)

val tag_plain : int
(** ALU, lui, setmask, halt, ...: one issue slot, no memory port. *)

val tag_mem_read : int
(** A load from address [arg1]. *)

val tag_mem_write : int
(** A store to address [arg1]. *)

val tag_cond_branch : int
(** A conditional branch; {!flag_taken} gives the outcome and [arg1] the
    taken-path target (used for BTB training either way). *)

val tag_jump : int
(** A direct unconditional jump to [arg1]. *)

val tag_ind_jump : int
(** An indirect jump via register to [arg1]. [arg2] is the
    compiler-identified value hint correlated with the target (the opcode,
    for the dispatch jump), [-1] = no hint; the VBBI predictor indexes the
    BTB with a hash of PC and hint. *)

val tag_call : int
(** A call to [arg1], indirect when {!flag_indirect} is set. [arg2] is the
    architectural return address pushed on the RAS; [-1] means the default
    [pc + 4] (a 4-byte call instruction). Call sites emitted at a wider
    stride (jump-threading handler replicas spaced
    {!Scd_codegen.Layout.hot_stride} apart) carry their real [pc + stride]
    link so the matching {!tag_return} target agrees with the RAS
    prediction. *)

val tag_return : int
(** A return to [arg1], predicted by the RAS. *)

val tag_bop : int
(** SCD branch-on-opcode for opcode [arg2]. {!flag_hit} and the target
    [arg1] are decided by the SCD engine at trace time (the BTB is
    architecturally visible); the pipeline charges stall bubbles and
    records fast-path statistics. On a miss [arg1] is the fall-through
    PC. *)

val tag_jru : int
(** SCD jump-register-with-JTE-update to [arg1], for opcode [arg2] ([-1]
    when Rop was not valid): times like an indirect jump. The JTE
    insertion has already been performed by the engine when the cell is
    consumed. *)

val tag_jte_flush : int
(** SCD jump-table flush: one plain issue slot; the engine has already
    invalidated the JTEs. *)

val tag_plain_run : int
(** A run of [arg1] consecutive plain instructions starting at the cell's
    [pc], spaced [arg2] bytes apart, sharing its dispatch flag (and
    defining no other). Consumed in aggregate by
    {!Scd_uarch.Pipeline.consume_tape} with bit-identical stats, cycles and
    cache/TLB traffic to [arg1] single {!tag_plain} cells. *)

(** {2 Flags} *)

val flag_dispatch : int
(** The instruction belongs to the interpreter dispatcher code
    (fetch/decode/bound-check/target-calculation/jump); drives the paper's
    Figure 2 and Figure 3 accounting. Every tag. *)

val flag_sets_rop : int
(** An [.op]-suffixed instruction; lets the pipeline model the
    Rop-not-ready stall before a subsequent [bop]. Every tag but
    {!tag_plain_run}. *)

val flag_taken : int
(** {!tag_cond_branch} only. *)

val flag_hit : int
(** {!tag_bop} only. *)

val flag_indirect : int
(** {!tag_call} only. *)

(** {2 The tape} *)

type tape

val cell_words : int
(** Words per cell (4). *)

val tape_create : ?capacity:int -> unit -> tape
(** [capacity] is in cells (default 64). *)

val tape_clear : tape -> unit
val tape_cells : tape -> int

val tape_push : tape -> pc:int -> flags:int -> arg1:int -> arg2:int -> unit
(** Append one cell; allocation-free unless the buffer must grow. *)

val tape_push_run : tape -> pc:int -> dispatch:bool -> count:int -> stride:int -> unit
(** Account [count] plain instructions from [pc], spaced [stride] bytes
    apart, as a {!tag_plain_run} cell. When the tape's last cell is a run
    with the same dispatch flag and stride whose next instruction would
    sit at [pc], that cell's count grows by [count] instead (the merged
    cell stands for exactly the same instructions); otherwise one cell is
    appended. Cells written by {!tape_blit} merge like pushed ones. *)

(** {3 Template stamping}

    A precompiled template is an immutable [int array] of whole cells in
    the tape encoding. Stamping appends it in one copy loop; the
    returned word base lets the producer patch the few run-dependent words
    in place instead of re-computing every cell (see
    {!Scd_codegen.Template}). *)

val tape_extent : tape -> int
(** Current length in words — the word base the next append will land at,
    and a valid [from] for {!tape_snapshot}. *)

val tape_words : tape -> int array
(** The tape's backing buffer; words [[0, extent)] hold the live cells.
    The reference is invalidated by any growing append, so callers must
    not retain it across pushes. Lets the timing model walk a batch of
    cells with direct loads instead of a per-field accessor call. *)

val tape_blit : tape -> int array -> int
(** Append a whole-cell template verbatim (its length must be a multiple
    of {!cell_words}); returns the word base it landed at. Grows the
    buffer (to at least the needed size) if required. *)

val tape_blit_reloc : tape -> int array -> pc_delta:int -> int
(** Like {!tape_blit}, but the template is base-relative: word 0 of every
    cell (the PC) is offset by [pc_delta]; payload words are copied
    as-is. *)

val tape_set_word : tape -> int -> int -> unit
(** [tape_set_word t i v] overwrites absolute word [i] — used to patch
    run-dependent words (fetch address, data-access addresses, branch
    outcome) after a stamp. *)

val tape_snapshot : tape -> from:int -> int array
(** Copy out words [[from, extent)]: template capture after emitting the
    fixed cells of a sequence once with {!tape_push}. *)

val tape_cell_tag : tape -> int -> int
val tape_cell_pc : tape -> int -> int
val tape_cell_arg1 : tape -> int -> int
val tape_cell_arg2 : tape -> int -> int
(** Raw accessors for cell [i]. *)
