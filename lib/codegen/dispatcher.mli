(** The interpreter's dispatcher, written once as executable ERV32 code.

    One per (VM profile, dispatch scheme, with or without the loop
    book-keeping): the dispatch path the co-simulator measures, with the
    instruction counts of {!Spec.dispatch_costs}, each instruction tagged
    with its role. {!Layout} sizes the site blocks and jump-threading
    tails by it, the co-simulation driver walks it into tape cells,
    [scdsim dispatch] prints it, and a test executes it on
    {!Scd_isa.Exec} against the driver's cells. It does not depend on the
    layout: {!program} resolves the one layout-dependent operand.

    Registers: [r20] holds the VM-state block's address (the bytecode
    pointer is its word 0) and [r21] that of jump-table entry 0. The
    dispatcher writes [r3] (bytecode pointer), [r9] (bytecode), [r10],
    [r11] (operands), [r12] (opcode), [r13] (bound), [r14] (jump-table
    entry, then handler) and [r15], [r16] (loop book-keeping). *)

type role =
  | Plain  (** ALU instruction. *)
  | Vm_load  (** A load from the VM-state block. *)
  | Fetch  (** The bytecode load: [ldw.op] under SCD, latching Rop. *)
  | Vm_store  (** The store of the bumped bytecode pointer. *)
  | Bop  (** SCD only. *)
  | Bound_check  (** The never-taken branch to the default handler. *)
  | Jt_load  (** The jump-table entry load. *)
  | Jump  (** [jalr] to the handler, or [jru] under SCD. *)

type t = private {
  instrs : Scd_isa.Instr.t array;
  roles : role array;
  fetch : int;  (** Index of the {!Fetch}. *)
  bop : int;  (** Index of the {!Bop}; [-1] when the scheme is not SCD. *)
}

val get : Spec.t -> Scd_core.Scheme.t -> overhead:bool -> t
(** The dispatcher of [spec] under [scheme]; [overhead] adds the loop
    book-keeping, which only the common site carries. Built once per
    [spec] (physical equality) for the whole process, so a lookup
    allocates nothing. Raises [Invalid_argument] when [spec.dispatch] is
    too small to dispatch (fewer than 3 fetch, 1 decode, 2 bound-check or
    3 target-calculation instructions). *)

val length : t -> int
(** Instructions up to the dispatch jump; under SCD the [bop]-miss path
    (a hit executes [bop + 1]). *)

val rop_gap : t -> int
(** Under SCD, how far the [bop] sits behind the [.op] fetch that sets
    Rop. *)

val role_name : role -> string

val program : t -> base:int -> default_handler:int -> Scd_isa.Asm.program
(** The dispatcher at [base], 4 bytes per instruction, its bound check
    branching to [default_handler]. The offset is not range-checked: it
    may exceed the branch immediate {!Scd_isa.Instr.validate} allows. *)
