(** Native-code cost profiles of the two interpreters.

    A profile describes, for one VM, the shape of the interpreter binary the
    co-simulator pretends to execute: how many native instructions each
    bytecode handler runs, which handlers call into runtime helper blobs
    (hash lookup, allocation, string concatenation, ...), which contain a
    data-dependent conditional branch, and how large the dispatcher code is.

    Handler sizes are calibrated so the dynamic profile matches the paper's
    measurements: the Lua-like register VM spends >25% of instructions in
    its dispatch loop (Figures 1 and 3) and the SpiderMonkey-like stack VM
    has smaller handlers but more bytecodes per unit of work. Section V
    gives the two dispatch loops' static sizes, 35 and 29 instructions;
    the costs here describe the path a dispatch executes, 17 (Lua) and 15
    (JS) instructions, 18 and 16 under SCD, written out as ERV32 code by
    {!Dispatcher} (and printed by [scdsim dispatch]). *)

type rt_blob = {
  blob_id : int;
  body_instrs : int;  (** Native instructions in the helper body. *)
  load_every : int;  (** One memory read every [load_every] instructions. *)
}

type handler_spec = {
  body_instrs : int;
      (** Handler-body instructions, excluding dispatch tail and helper
          expansion. *)
  ctrl_branch : bool;
      (** The handler ends in a conditional branch resolved by the
          bytecode's control outcome (comparisons, loop bytecodes). *)
  rt_call : int option;  (** Helper blob id invoked by the handler. *)
}

type dispatch_costs = {
  fetch_instrs : int;
      (** Bytecode fetch + virtual-PC update (always executed, the paper's
          Figure 1(b) lines 2-5). Includes the [.op]-suffixed load under
          SCD. *)
  operand_decode_instrs : int;
      (** Operand field extraction needed by every handler (not removed by
          SCD). *)
  decode_instrs : int;  (** Opcode extraction: removed on the SCD fast path. *)
  bound_check_instrs : int;
      (** The compare and the never-taken branch to the default handler;
          removed on the SCD fast path. *)
  target_calc_instrs : int;
      (** Jump-table address computation + table load; removed on the SCD
          fast path. The final indirect jump is accounted separately. *)
  loop_overhead_instrs : int;
      (** Loop book-keeping executed only in the shared dispatcher block
          (jump threading drops these, which is its instruction saving). *)
}

type t = {
  name : string;
  num_opcodes : int;
  opcode_name : int -> string;
  dispatch : dispatch_costs;
  handler : int -> handler_spec;
  blobs : rt_blob array;
  builtin_blob : int -> rt_blob;  (** Helper blob for builtin id (>= 0). *)
  dispatch_site : int -> [ `Common | `Call_tail | `Branch_tail ];
      (** Which fetch site dispatches *after* this opcode's handler. For the
          register VM everything is [`Common]; the stack VM mirrors
          SpiderMonkey's replicated fetch sites. Every site runs the same
          dispatcher ([Dispatcher.get]; the call and branch tails without
          the loop book-keeping), so under SCD each of the three sites has
          its own [ldw.op] and [bop], the branch tail included. Section
          III-C leaves branch-tail sites outside the [.op] transformation;
          DESIGN.md §5 records the difference. *)
}

val rvm : t
(** The plain register-VM binary (no fused handlers). *)

val rvm_fused : t
(** The superinstruction build: the four fused compare-and-branch handlers
    join the image. *)

val rvm_replicated : t
(** The register VM under the bytecode-replication pass: the replica
    opcodes of {!Scd_rvm.Bytecode.replica_bases} get handler clones of
    their bases, growing the jump table and the code image. *)

val svm : t
