open Scd_runtime

type site = Common_site | Call_site | Branch_site

(* Everything the driver asks per bytecode is a dense array filled once by
   [build]: the per-bytecode path makes no association-list scan, hash
   lookup or [Spec] closure call, and allocates no spec record. *)
type t = {
  site_bases : int array;
      (* by [site_index]; a site the VM lacks holds the common site's base *)
  next_sites : site array;  (* per opcode: [site_of_opcode] *)
  tail_targets : int array;  (* per opcode: base of the next site *)
  handlers : Spec.handler_spec array;  (* per opcode: [spec.handler] *)
  handler_entries : int array;
  handler_tails : int array;
  default_handler : int;
  blob_entries : int array;  (* per [spec.blobs] index *)
  builtin_blobs : Spec.rt_blob array;  (* per builtin: [spec.builtin_blob] *)
  builtin_entries : int array;  (* per builtin *)
  code_bytes : int;
  fn_code_offsets : int array;
  fn_const_offsets : int array;
}

let code_base = 0x0001_0000

(* Data-region bases are salted with distinct block-granularity offsets so
   that region starts do not all alias into cache set 0 (a linker would
   never emit such a pathological layout either). *)
let jump_table_base = 0x0010_0040
let vm_state_base = 0x0020_0480
let stack_base = 0x0021_08c0
let bytecode_base = 0x0030_0d00
let const_base = 0x0040_1140
let globals_base = 0x0050_1580
let heap_base = 0x0060_19c0
let string_base = 0x0080_1e00

(* Compiled handler and helper bodies interleave their hot path with cold
   code (error arms, slow-path fallbacks, metamethod checks), so each
   executed instruction occupies [hot_stride] bytes of I-cache footprint.
   The shared dispatcher blocks are compact hand-shaped code (4 bytes per
   instruction), but a jump-threading replica is ordinary inlined C at each
   handler tail, so it inherits the handler stride — this is why jump
   threading bloats the I-cache footprint far more than its instruction
   count suggests (Figure 10). *)
let hot_stride = 12

(* Handler size in 4-byte slots; [tail] is the tail region's. *)
let handler_len ~tail (h : Spec.handler_spec) =
  (h.body_instrs * hot_stride / 4)
  (* The runtime-helper call is compiled handler code like the rest of the
     body, so it occupies a full hot-stride slot — its return address (and
     the tail region behind it) sits [hot_stride] bytes past the call. *)
  + (match h.rt_call with Some _ -> hot_stride / 4 | None -> 0)
  + tail

let prefix_offsets sizes =
  let n = Array.length sizes in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + sizes.(i - 1)
  done;
  offsets

let site_index = function Common_site -> 0 | Call_site -> 1 | Branch_site -> 2

let build ~(spec : Spec.t) ~scheme ~fn_code_sizes ~fn_const_counts =
  let cursor = ref code_base in
  let alloc_instrs n =
    let base = !cursor in
    cursor := base + (4 * n);
    base
  in
  let next_sites =
    Array.init spec.num_opcodes (fun op ->
        match spec.dispatch_site op with
        | `Common -> Common_site
        | `Call_tail -> Call_site
        | `Branch_tail -> Branch_site)
  in
  (* Dispatch-site blocks (unused under jump threading, where every handler
     carries a replica, but allocating them is harmless and keeps addresses
     comparable across schemes); only the common site's has the loop
     book-keeping. A handler's tail is its jump back to a site, or a
     replica without the book-keeping (jump threading's instruction
     saving) at the handler stride. *)
  let looped = Dispatcher.length (Dispatcher.get spec scheme ~overhead:true) in
  let bare = Dispatcher.length (Dispatcher.get spec scheme ~overhead:false) in
  let tail =
    match (scheme : Scd_core.Scheme.t) with
    | Jump_threading -> bare * hot_stride / 4
    | Baseline | Vbbi | Scd -> 1
  in
  let common = alloc_instrs looped in
  let site_bases = Array.make 3 common in
  (* The stack VM has distinct call/branch fetch sites. *)
  if Array.exists (fun site -> site <> Common_site) next_sites then begin
    (* The branch-tail block sits below the call-tail block: every
       published figure was simulated with this placement. *)
    site_bases.(site_index Branch_site) <- alloc_instrs bare;
    site_bases.(site_index Call_site) <- alloc_instrs bare
  end;
  let handlers = Array.init spec.num_opcodes spec.handler in
  let handler_entries = Array.make spec.num_opcodes 0 in
  let handler_tails = Array.make spec.num_opcodes 0 in
  for op = 0 to spec.num_opcodes - 1 do
    let len = handler_len ~tail handlers.(op) in
    let base = alloc_instrs len in
    handler_entries.(op) <- base;
    handler_tails.(op) <- base + (4 * (len - tail))
  done;
  let default_handler = alloc_instrs 12 in
  let blob_entry (b : Spec.rt_blob) =
    alloc_instrs ((b.body_instrs * hot_stride / 4) + 1)
  in
  let blob_entries = Array.map blob_entry spec.blobs in
  let builtin_blobs = Array.init Builtins.count spec.builtin_blob in
  let builtin_entries = Array.map blob_entry builtin_blobs in
  {
    site_bases;
    next_sites;
    tail_targets =
      Array.map (fun site -> site_bases.(site_index site)) next_sites;
    handlers;
    handler_entries;
    handler_tails;
    default_handler;
    blob_entries;
    builtin_blobs;
    builtin_entries;
    code_bytes = !cursor - code_base;
    fn_code_offsets = prefix_offsets fn_code_sizes;
    fn_const_offsets =
      prefix_offsets (Array.map (fun n -> 8 * n) fn_const_counts);
  }

let site_base t site = t.site_bases.(site_index site)
let site_of_opcode t op = t.next_sites.(op)
let tail_target t op = t.tail_targets.(op)
let handler t op = t.handlers.(op)
let handler_entry t op = t.handler_entries.(op)

let handler_call_site t op =
  t.handler_entries.(op) + (hot_stride * t.handlers.(op).body_instrs)

let handler_tail t op = t.handler_tails.(op)
let default_handler t = t.default_handler

let blob_entry t i =
  if i < 0 || i >= Array.length t.blob_entries then
    invalid_arg (Printf.sprintf "Layout.blob_entry: unknown blob %d" i);
  t.blob_entries.(i)

let builtin_blob t builtin = t.builtin_blobs.(builtin)
let builtin_entry t builtin = t.builtin_entries.(builtin)

let code_bytes t = t.code_bytes

let jump_table_entry _t opcode = jump_table_base + (4 * opcode)
let vm_state_addr _t = vm_state_base
let stack_slot_addr _t slot = stack_base + (8 * slot)

let bytecode_addr t ~fn ~pc = bytecode_base + t.fn_code_offsets.(fn) + pc

(* Allocation-free address mapping over the flat access encoding
   ({!Trace.access_kind} / [access_a] / [access_b]); the write flag travels
   separately in the trace record. *)
let access_addr_flat t ~kind ~a ~b =
  if kind = Trace.acc_reg then stack_slot_addr t a
  else if kind = Trace.acc_const then const_base + t.fn_const_offsets.(a) + (8 * b)
  else if kind = Trace.acc_global then globals_base + (16 * (a land 0xFFFF))
  else if kind = Trace.acc_table_slot then
    heap_base + (512 * (a land 8191)) + (8 * (b land 63))
  else string_base + (64 * (a land 0xFFFF)) + (b land 63)
