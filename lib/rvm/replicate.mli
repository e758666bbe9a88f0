(** Bytecode replication pass (Ertl & Gregg, PLDI 2003).

    Gives the hottest opcodes a second dispatch identity: alternating static
    occurrences of each base opcode in {!Bytecode.replica_bases} are tagged
    with the corresponding replica id. Semantics are untouched — the VM
    executes the base instruction — but the *dispatch* flows through the
    replica's own jump-table slot and handler, splitting the target contexts
    branch predictors observe and, under SCD, occupying an extra JTE.

    Run after {!Peephole} (that pass renumbers instructions and clears
    overrides). *)

val optimize : Bytecode.program -> Bytecode.program
