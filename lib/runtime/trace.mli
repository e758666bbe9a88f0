(** Bytecode-level trace events.

    Both interpreters report one event per executed bytecode. The
    co-simulator expands each event into the native-instruction stream of
    the interpreter binary (dispatch sequence + handler body), using the
    accesses to derive data addresses and the control outcome to resolve
    handler-internal branch outcomes and the next bytecode fetch address.

    The event record {!t} is {e flat and reusable}: the owning VM overwrites
    one record in place per bytecode (via {!start} and the [add_*]/[set_*]
    writers) and hands it to its sink synchronously, so a traced run
    allocates nothing per bytecode. Hot consumers read the flat fields and
    indexed accessors; the boxed {!access}/{!ctrl} views reconstruct the
    descriptive variants for tests and tooling. Sinks that retain events
    beyond the callback must {!copy} them. *)

(** Boxed access description (the readable exchange format). *)
type access =
  | Reg of { slot : int; write : bool }
      (** VM value-stack slot (absolute index from the stack base). *)
  | Const of { fn : int; index : int }  (** Constant-pool read. *)
  | Global of { name_hash : int; write : bool }
  | Table_slot of { id : int; slot : int; write : bool }
      (** Heap access into table [id] at a representative [slot]. *)
  | Str_bytes of { id_hash : int; offset : int }
      (** String-body byte access (k-nucleotide style workloads). *)

(** Boxed control description. *)
type ctrl =
  | Seq  (** Fall through to the next bytecode. *)
  | Branch of { taken : bool; target : int }
      (** Conditional bytecode; [target] is the taken-path bytecode pc. *)
  | Jump of { target : int }
  | Call of { callee : int }
      (** Mina function call; [callee] is a proto id, or [-1 - builtin_id]
          for a builtin. *)
  | Ret

(** Access kind codes returned by {!access_kind}. Payloads ({!access_a},
    {!access_b}): [acc_reg] slot, -; [acc_const] fn, index; [acc_global]
    name_hash, -; [acc_table_slot] id, slot; any other code is a string
    byte access, id_hash, offset. *)

val acc_reg : int
val acc_const : int
val acc_global : int
val acc_table_slot : int

(** Control kind codes held in [ctrl_kind] (the two readers test for; the
    others mark sequential flow, a jump and a return); [ctrl_arg] is the
    branch/jump target or the callee. *)

val ctrl_branch : int
val ctrl_call : int

type t = {
  mutable fn : int;  (** Proto id of the currently-executing function. *)
  mutable pc : int;
      (** Bytecode index (register VM) or byte offset (stack VM). *)
  mutable opcode : int;
  mutable n_accesses : int;
  mutable acc_kinds : int array;
      (** Kind in bits 0-2, write flag in bit 3; prefer the accessors. *)
  mutable acc_a : int array;
  mutable acc_b : int array;
  mutable ctrl_kind : int;
  mutable ctrl_taken : bool;
  mutable ctrl_arg : int;
}

type sink = t -> unit
(** What the interpreters accept as their [~trace] argument. The event is
    only valid for the duration of the call. *)

val create : unit -> t

val start : t -> fn:int -> pc:int -> opcode:int -> unit
(** Begin a fresh event in place: no accesses, control [Seq]. *)

val add_reg : t -> slot:int -> write:bool -> unit
val add_const : t -> fn:int -> index:int -> unit
val add_global : t -> name_hash:int -> write:bool -> unit
val add_table_slot : t -> id:int -> slot:int -> write:bool -> unit
val add_str_bytes : t -> id_hash:int -> offset:int -> unit

val set_branch : t -> taken:bool -> target:int -> unit
val set_jump : t -> target:int -> unit
val set_call : t -> callee:int -> unit
val set_ret : t -> unit

val access_count : t -> int
val access_kind : t -> int -> int
val access_write : t -> int -> bool
val access_a : t -> int -> int
val access_b : t -> int -> int

val access : t -> int -> access
(** Boxed view of access [i]. *)

val accesses : t -> access list
(** Boxed view of all accesses, in record order. *)

val ctrl : t -> ctrl
(** Boxed view of the control outcome. *)

val copy : t -> t
(** Deep, independent snapshot (for sinks that retain events). *)
