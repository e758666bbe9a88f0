open Scd_isa

(* A template is the fixed portion of one dispatch/handler event sequence,
   precompiled into whole tape cells. See template.mli for the encoding
   contract and the patch-word conventions. *)

type t = {
  cells : int array;
  fetch_patch : int;
  end_pc : int;
}

let empty = { cells = [||]; fetch_patch = -1; end_pc = 0 }

let make ?(fetch_patch = -1) ?(end_pc = 0) cells = { cells; fetch_patch; end_pc }

type set = {
  dispatch : t array array;
  replica : t array;
  scd_prefix : t array;
  scd_miss : t array array;
  blobs : t array;
  builtins : t array;
}

(* ------------------------------------------------------------------ *)
(* Stamping                                                            *)
(* ------------------------------------------------------------------ *)

let stamp_dispatch tape t ~fetch_addr =
  let base = Event.tape_blit tape t.cells in
  Event.tape_set_word tape (base + t.fetch_patch) fetch_addr

let stamp_replica tape t ~base_pc ~fetch_addr =
  let base = Event.tape_blit_reloc tape t.cells ~pc_delta:base_pc in
  Event.tape_set_word tape (base + t.fetch_patch) fetch_addr

let stamp tape t = ignore (Event.tape_blit tape t.cells : int)

let stamp_blob tape t ~call_pc ~link =
  let base = Event.tape_blit tape t.cells in
  (* cell 0 is the call: its PC and RAS link are call-site-dependent, as is
     the final return cell's target — everything else (the callee body) is
     absolute. *)
  Event.tape_set_word tape base call_pc;
  Event.tape_set_word tape (base + 3) link;
  Event.tape_set_word tape (base + Array.length t.cells - 2) link

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* Code addresses from {!Layout.build} depend only on (spec, scheme) — the
   per-function tables only move data addresses, which are patch words —
   so template sets are memoized process-wide. Specs are a handful of
   top-level constants, hence the physical-equality key and the plain
   association list. The lock makes first-build races between domains
   safe; after that each lookup is one short scan under an uncontended
   mutex, once per run. *)
let lock = Mutex.create ()
let registry : (Spec.t * Scd_core.Scheme.t * set) list ref = ref []

let find_or_build ~spec ~scheme build =
  Mutex.protect lock (fun () ->
      let rec find = function
        | (s, sch, set) :: _ when s == spec && sch = scheme -> Some set
        | _ :: rest -> find rest
        | [] -> None
      in
      match find !registry with
      | Some set -> set
      | None ->
        let set = build () in
        registry := (spec, scheme, set) :: !registry;
        set)
