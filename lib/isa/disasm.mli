(** Disassembler for encoded ERV32 machine words.

    Round-trips with {!Encode}: [disassemble (Encode.encode_exn i)] renders
    the same text {!Instr.pp} would. Branch and jump displacements are
    annotated with their absolute targets when a base PC is supplied. *)

val disassemble : ?pc:int -> int -> (string, string) result
(** One 32-bit word to assembly text. [pc] resolves pc-relative targets. *)

val dump_program : Asm.program -> string
(** Multi-line listing of an assembled program: address, encoded word,
    mnemonic and operands, with label names interleaved. *)
