(** Trace-driven co-simulation of a script interpreter on the modelled
    embedded core.

    The chosen VM executes the script for real (its semantics run in OCaml);
    every executed bytecode is expanded — through the dispatch scheme's code
    layout — into the native-instruction event stream the interpreter binary
    would retire, and that stream drives the {!Scd_uarch.Pipeline} timing
    model. The SCD scheme consults the {!Scd_core.Engine} *while generating
    the stream*, because a [bop] hit architecturally skips the slow-path
    instructions.

    Fidelity notes:
    - the [bop] hit condition includes the paper's [Rbop-pc == PC] check, so
      the stack VM's three replicated dispatch sites thrash each other
      exactly as Table I implies — one reason the paper's JavaScript
      speedups trail Lua's;
    - jump threading replicates the dispatcher at every handler tail, so its
      I-cache footprint grows (Figure 10's effect);
    - VBBI is baseline code with hint-hashed BTB indexing. *)

type run_config = {
  frontend : Frontend.t;
      (** The interpreter to co-simulate, resolved from the {!Frontend}
          registry (e.g. [Frontend.get "lua"]). *)
  scheme : Scd_core.Scheme.t;
  machine : Scd_uarch.Config.t;
  context_switch_interval : int option;
      (** Flush JTEs every n retired native instructions (OS model,
          {!Scd_core.Engine.context_switch}); n must be positive. *)
  multi_table : bool;
      (** Section IV extension: give each dispatch site its own branch ID —
          a private (Rop, Rmask, Rbop-pc) set and branch-ID-tagged JTEs.
          Eliminates the Rbop-pc thrash between the stack VM's replicated
          fetch sites; a no-op for the single-site register VM. *)
  indirect_override : Scd_uarch.Indirect.scheme option;
      (** Replace the scheme's default indirect predictor (e.g. run baseline
          code under TTC or ITTAGE for the related-work ablation). *)
  superinstructions : bool;
      (** Run the register VM's {!Scd_rvm.Peephole} superinstruction pass
          (Ertl & Gregg), fusing compare+branch bytecode pairs — the other
          software dispatch-reduction technique of the paper's Section VII.
          Ignored for the stack VM. *)
  bytecode_replication : bool;
      (** Run the register VM's {!Scd_rvm.Replicate} pass (Ertl & Gregg):
          hot opcodes dispatch through alternating replica jump-table slots,
          splitting predictor contexts at the cost of handler clones (more
          I-cache) and extra JTEs under SCD. Ignored for the stack VM. *)
  seed : int64;
}

val default_config : run_config
(** Lua VM, baseline scheme, the paper's simulator machine. *)

type result = Result.t = {
  stats : Scd_uarch.Stats.t;
  btb : Scd_uarch.Btb.stats;
  engine : Scd_core.Engine.stats option;  (** Present for the SCD scheme. *)
  bytecodes : int;  (** Bytecodes the VM executed. *)
  output : string;  (** The script's printed output (for checksums). *)
  code_bytes : int;  (** Interpreter native-code footprint. *)
}
(** Re-export of {!Result.t}: a pure snapshot, safe to retain, compare and
    serialise after the run. *)

val runs : unit -> int
(** Number of co-simulations completed by this process so far (across all
    domains). The persistent-cache tests assert a warm sweep leaves this
    unchanged. *)

val run :
  ?telemetry:Telemetry.t ->
  ?event_path:[ `Flat | `Flat_push | `Boxed ] ->
  ?tape_trap:(Scd_isa.Event.tape -> unit) ->
  run_config ->
  source:string ->
  result
(** Compile and co-simulate [source]. Raises on script errors.

    [tape_trap], when given, observes every non-empty event-tape batch just
    before the timing model drains it (tests use it to assert properties of
    the raw cells — e.g. replica PC spacing, or word-for-word equality
    between emission strategies). The tape contents are only valid for the
    duration of the callback.

    [event_path] selects how expanded events reach the timing model.
    [`Flat] (the default) drains the preallocated flat event tape —
    allocation-free per bytecode — and fills it by stamping precompiled
    per-(site, opcode) cell templates ({!Scd_codegen.Template}), patching
    only the run-dependent words. [`Flat_push] uses the same tape but
    derives every cell through the cell-by-cell emitters; the differential
    tests compare the two tapes word for word. Both flat paths encode
    straight-line code as run-length cells, also under a
    [context_switch_interval]: the interval is armed as the pipeline's
    retire boundary ({!Scd_uarch.Pipeline.set_retire_boundary}), which
    splits a run cell at the exact instruction where the JTE flush falls.
    [`Boxed] decodes every tape cell into a boxed {!Scd_isa.Event.t}, one
    cell per instruction, feeds {!Scd_uarch.Pipeline.consume} and counts
    retired instructions for the context-switch model itself: the legacy
    delivery path, kept so the differential tests can assert all paths
    produce bit-identical results.

    [telemetry], when given, is attached for the duration of the run: the
    pipeline probe samples interval time series, and every bytecode's
    cycles/instructions/mispredictions are attributed to its dispatch site
    and opcode (see {!Telemetry}). Each telemetry value records exactly one
    run. Without it, the driver's hot path is unchanged (allocation-free,
    probe disabled).

    Host profiling: each phase runs under a {!Scd_obs.Prof} span —
    ["setup"] (BTB/engine/pipeline construction), ["compile"], ["layout"],
    ["templates"] (template lookup or first build), ["execute"] (the VM
    run driving the timing model) and ["snapshot"] —
    nested below whatever span the caller opened (e.g. [scdsim prof]'s
    ["run"]). With no profile active each span costs one ref load. *)

val cycles : result -> int
val instructions : result -> int
