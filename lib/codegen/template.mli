(** Precompiled event-cell templates.

    The fixed portion of each dispatch + handler event sequence is known
    once {!Layout.build} has assigned code addresses: per (opcode, scheme,
    dispatch site) every cell's PC, flags and most payload words are
    constants. A template captures those cells — in the exact
    {!Scd_isa.Event.tape} 4-word encoding — so the co-simulation driver
    can emit a whole sequence as one [Array.blit]-style stamp plus a short
    patch list for the run-dependent words (bytecode fetch address,
    data-access addresses, branch outcome, bop hit/target), instead of
    re-computing flags and cursor positions cell by cell on every executed
    bytecode.

    Templates hold only run-invariant words. Anything decided at trace
    time — data-access addresses, taken bits, bop hits, engine-supplied
    targets — is either a patch word or a separately pushed cell; the
    stamped tape must be word-for-word identical to the push-based
    expansion (the differential tests assert exactly that). *)

type t = {
  cells : int array;
      (** Whole cells, [Scd_isa.Event.cell_words] words each. For
          relocatable templates (jump-threading replicas) word 0 of each
          cell is relative to the stamp base PC; payload words are always
          absolute. *)
  fetch_patch : int;
      (** Word offset of the bytecode-fetch address ([arg1] of the fetch
          load) within [cells]; [-1] when the template has none. *)
  end_pc : int;
      (** Emission cursor after the stamp — absolute for site-anchored
          templates, base-relative for relocatable ones. Only meaningful
          where the driver keeps emitting behind the stamp (the SCD
          dispatch prefix, whose end is the [bop] PC). *)
}

val empty : t

val make : ?fetch_patch:int -> ?end_pc:int -> int array -> t

type set = {
  dispatch : t array array;
      (** [dispatch.(site).(opcode)]: the full dispatcher sequence
          reaching [opcode]'s handler from dispatch site [site] (compact
          4-byte-stride site block, loop-overhead prefix on the common
          site only). Non-SCD schemes; under jump threading only site 0 is
          populated (the one pre-replica dispatch). One patch: the fetch
          address. *)
  replica : t array;
      (** [replica.(opcode)]: jump-threading replica dispatcher,
          base-relative (stamped at the previous handler's tail with
          {!stamp_replica}), spaced {!Layout.hot_stride}. One patch: the
          fetch address. *)
  scd_prefix : t array;
      (** [scd_prefix.(site)]: the SCD dispatcher up to (excluding) the
          [bop] — the rest depends on the engine's architectural state at
          trace time. [end_pc] is the [bop] PC. One patch: the fetch
          address. *)
  scd_miss : t array array;
      (** [scd_miss.(site).(opcode)]: the [bop]-miss slow path —
          decode/bound-check/target-calculation from the [bop]
          fall-through up to (excluding) the [jru]. The miss [bop] cell
          itself and the [jru] carry engine decisions and are pushed at
          trace time. No patches; [end_pc] is the [jru] PC. *)
  blobs : t array;
      (** Per [spec.blobs] index: the runtime-helper call cell plus the
          callee body and return. The callee body is absolute; the call
          cell's PC and RAS link and the return target are call-site
          words, patched by {!stamp_blob}. *)
  builtins : t array;
      (** Per builtin id: the builtin library routine's blob, laid out as
          in [blobs]. *)
}
(** One scheme's worth of templates for one interpreter spec. Arrays are
    indexed by {!Layout.site_index} and opcode. *)

val stamp_dispatch : Scd_isa.Event.tape -> t -> fetch_addr:int -> unit
(** Append the template and patch the bytecode-fetch address. *)

val stamp_replica :
  Scd_isa.Event.tape -> t -> base_pc:int -> fetch_addr:int -> unit
(** Append a base-relative template at [base_pc] (cell PCs are offset by
    it) and patch the fetch address. *)

val stamp : Scd_isa.Event.tape -> t -> unit
(** Append a template with no patches. *)

val stamp_blob : Scd_isa.Event.tape -> t -> call_pc:int -> link:int -> unit
(** Append a blob template, patching the call-site words: the call cell's
    PC and RAS link, and the return cell's target ([link] — where
    execution resumes after the helper). *)

val find_or_build :
  spec:Spec.t -> scheme:Scd_core.Scheme.t -> (unit -> set) -> set
(** Memoized template sets, keyed by ([spec] physical equality, [scheme])
    — code addresses from {!Layout.build} depend on nothing else. The
    builder runs at most once per key per process; lookups are
    domain-safe. *)
