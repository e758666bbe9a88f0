(** Memory layout of the simulated interpreter process.

    One [t] is built per (VM profile, dispatch scheme, compiled program). It
    fixes native-code addresses for the dispatcher site blocks, every
    bytecode handler, runtime helper blobs and builtin library routines, and
    data addresses for the jump table, VM state, value stack, bytecode and
    constant areas, globals, heap and string space. The co-simulator reads
    all program counters and data addresses from here, so I-cache pressure
    (including jump-threading code bloat) follows directly from the layout.

    Dispatch sites: the register VM has one (the common dispatcher); the
    stack VM has three, mirroring SpiderMonkey's replicated fetch sites
    (common, call-tail, branch-tail). Under jump threading every handler
    tail carries its own dispatcher replica instead. *)

type site = Common_site | Call_site | Branch_site

val site_index : site -> int
(** Dense site index: 0 common, 1 call-tail, 2 branch-tail. *)

type t

val build :
  spec:Spec.t ->
  scheme:Scd_core.Scheme.t ->
  fn_code_sizes:int array ->
  (* bytecode bytes per function *)
  fn_const_counts:int array ->
  t

(* --- native code addresses --- *)

val site_base : t -> site -> int
(** Base PC of a dispatch-site block. The register VM has just
    [Common_site]; its other sites answer the common site's base. *)

val site_of_opcode : t -> int -> site
(** Which site dispatches *after* this opcode's handler (non-jump-threaded
    schemes): [spec.dispatch_site op]. *)

val tail_target : t -> int -> int
(** Target of this opcode's tail jump: [site_base t (site_of_opcode t op)]. *)

val handler : t -> int -> Spec.handler_spec
(** [spec.handler op], evaluated once at {!build}. *)

val hot_stride : int
(** Byte distance between consecutive *executed* instructions inside handler
    and helper bodies: compiled handlers interleave hot code with cold
    error/slow paths, so their I-cache footprint per executed instruction
    exceeds 4 bytes. Dispatcher code is compact (4-byte stride). *)

val handler_entry : t -> int -> int
(** Native entry PC of an opcode's handler — the jump-table/JTE target. *)

val handler_call_site : t -> int -> int
(** PC of the handler's helper-call instruction (after the strided body). *)

val handler_tail : t -> int -> int
(** PC of the first tail instruction (back-jump or dispatcher replica). *)

val default_handler : t -> int
(** Target of the bound-check branch (the [error()] arm). *)

val blob_entry : t -> int -> int
(** Entry PC of the VM helper blob at index [i] of [spec.blobs] (the index
    a handler's [rt_call] names). *)

val builtin_blob : t -> int -> Spec.rt_blob
(** [spec.builtin_blob builtin], built once at {!build}. *)

val builtin_entry : t -> int -> int
(** Entry PC of a builtin library routine's blob. *)

val code_bytes : t -> int
(** Total interpreter code footprint, for the bloat comparison. *)

(* --- data addresses --- *)

val jump_table_entry : t -> int -> int
val vm_state_addr : t -> int
val stack_slot_addr : t -> int -> int
val bytecode_addr : t -> fn:int -> pc:int -> int
val access_addr_flat : t -> kind:int -> a:int -> b:int -> int
(** Simulated address for a flat-encoded trace access
    ({!Scd_runtime.Trace.access_kind} and its [a]/[b] payloads); the write
    flag travels separately. Allocation-free. *)

