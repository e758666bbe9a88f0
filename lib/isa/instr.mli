(** ERV32: a 32-bit embedded RISC instruction set with the Short-Circuit
    Dispatch (SCD) extension of the paper (Table I).

    The base ISA is deliberately RISC-V-flavoured: 32 general registers with
    [r0] hardwired to zero, fixed 32-bit instructions, byte-addressed memory.
    The SCD extension adds [setmask], the [.op] suffix (modelled as a flag on
    ALU and load instructions), [bop], [jru] and [jte_flush]. *)

type reg = int
(** Register index in [0, 31]. Register 0 reads as zero and ignores writes. *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Sra
  | Slt
  | Sltu
  | Mul
  | Div
  | Rem

type cond = Eq | Ne | Lt | Ge | Ltu | Geu

type width = Byte | Half | Word

type t =
  | Alu of { op : alu_op; rd : reg; rs1 : reg; rs2 : reg; op_suffix : bool }
  | Alui of { op : alu_op; rd : reg; rs1 : reg; imm : int; op_suffix : bool }
      (** [imm] is a signed 12-bit immediate. *)
  | Load of { width : width; rd : reg; base : reg; offset : int; op_suffix : bool }
      (** [offset] is a signed 13-bit byte offset. When [op_suffix] is set the
          loaded value, masked with [Rmask], is also latched into [Rop]. *)
  | Store of { width : width; src : reg; base : reg; offset : int }
  | Branch of { cond : cond; rs1 : reg; rs2 : reg; offset : int }
      (** PC-relative signed byte offset (multiple of 4). *)
  | Jal of { rd : reg; offset : int }  (** PC-relative direct call/jump. *)
  | Jalr of { rd : reg; base : reg; offset : int }  (** Indirect jump. *)
  | Lui of { rd : reg; imm : int }  (** Load upper 20-bit immediate. *)
  | Setmask of { rs : reg }  (** SCD: Rmask <- [rs]. *)
  | Bop  (** SCD: branch-on-opcode, BTB looked up with Rop.d as key. *)
  | Jru of { rd : reg; base : reg; offset : int }
      (** SCD: jump-register-with-JTE-update; as [Jalr] but also inserts the
          (Rop.d, target) pair into the BTB. *)
  | Jte_flush  (** SCD: invalidate all jump-table entries in the BTB. *)
  | Halt  (** Simulation control: stop the machine. *)

val mnemonic : t -> string
(** Assembly mnemonic including the [.op] suffix where set. *)

val is_scd_extension : t -> bool
(** True for the five instructions (or suffixed forms) SCD adds. *)

val validate : t -> (unit, string) result
(** Check field ranges (register indices, immediate widths, offset
    alignment). Instructions built by the assembler or decoder always
    validate. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
