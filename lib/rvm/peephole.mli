(** Superinstruction peephole pass (Ertl & Gregg, PLDI 2003 — the paper's
    related-work software technique [16]).

    Fuses every compare-and-skip bytecode ([EQ]/[LT]/[LE]/[TEST]) with the
    [JMP] that the compiler always emits right after it into a single fused
    bytecode ([EQJMP]/[LTJMP]/[LEJMP]/[TESTJMP]), halving the dispatch cost
    of conditional control flow. A pair is left unfused when some other jump
    targets its [JMP] directly (fusing would change where that jump lands).

    The pass rewrites instruction indices, so every jump displacement in the
    function — including [FORPREP]/[FORLOOP] — is remapped. Semantics are
    preserved exactly; only the bytecode count drops. *)

val optimize : Bytecode.program -> Bytecode.program

val fused_count : Bytecode.program -> int
(** Number of fused bytecodes in a program (for reporting). *)
