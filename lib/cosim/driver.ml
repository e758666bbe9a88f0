open Scd_isa
open Scd_uarch
open Scd_codegen
open Scd_runtime

type run_config = {
  frontend : Frontend.t;
  scheme : Scd_core.Scheme.t;
  machine : Config.t;
  context_switch_interval : int option;
  multi_table : bool;
  indirect_override : Indirect.scheme option;
  superinstructions : bool;
  bytecode_replication : bool;
  seed : int64;
}

let default_config =
  {
    frontend = Frontend.get "lua";
    scheme = Scd_core.Scheme.Baseline;
    machine = Config.simulator;
    context_switch_interval = None;
    multi_table = false;
    indirect_override = None;
    superinstructions = false;
    bytecode_replication = false;
    seed = 0x5EED_2016L;
  }

type result = Result.t = {
  stats : Stats.t;
  btb : Btb.stats;
  engine : Scd_core.Engine.stats option;
  bytecodes : int;
  output : string;
  code_bytes : int;
}

(* Completed co-simulations in this process, across all domains. The
   persistent-cache tests assert this stays flat on a warm run. *)
let run_counter = Atomic.make 0
let runs () = Atomic.get run_counter

(* ------------------------------------------------------------------ *)
(* Event expansion                                                     *)
(* ------------------------------------------------------------------ *)

type expander = {
  layout : Layout.t;
  spec : Spec.t;
  scheme : Scd_core.Scheme.t;
  pipeline : Pipeline.t;
  engine : Scd_core.Engine.t;
  stride : int;  (* bytes per bytecode pc unit: 4 for the register VM, 1 for the stack VM *)
  multi_table : bool;
      (* Section IV: one (Rop, Rmask, Rbop-pc) set per dispatch site, each
         with its own branch-ID-tagged jump table. *)
  mutable prev_opcode : int;  (* -1 before the first dispatch *)
  last_bop_pcs : int array;  (* Rbop-pc, per branch ID *)
  mutable bytecodes : int;
  mutable epc : int;
      (* Emission cursor: the native PC the next emitted instruction will
         carry. A mutable field rather than a [ref] so positioning costs no
         allocation per bytecode. *)
  tape : Event.tape;
      (* The per-driver flat event buffer: every retired instruction of the
         current batch is four ints written in place (a straight-line
         stretch is one run cell), drained in order by the pipeline at the
         next flush point. *)
  trap : (Event.tape -> unit) option;
      (* Test observer: called on every non-empty tape batch just before it
         is drained, and free to rewrite it. [None] (the default) costs one
         field load per flush. *)
  templates : Template.set option;
      (* Precompiled per-(site, opcode) cell templates: when present,
         [on_bytecode] stamps whole dispatcher / helper-call sequences with
         {!Event.tape_blit} and patches the run-dependent words, instead of
         re-deriving every cell through the emit helpers. Only on [`Flat];
         [`Flat_push] keeps the cell-by-cell emission for differential
         testing. *)
}

(* Instructions separating the .op producer from bop in the emitted
   dispatcher; decides Rop readiness for the fall-through policy. *)
let rop_distance (spec : Spec.t) =
  spec.dispatch.fetch_instrs - 1 + spec.dispatch.operand_decode_instrs

let rop_ready exp =
  match (Pipeline.config exp.pipeline).bop_policy with
  | `Stall -> true (* the pipeline charges bubbles instead *)
  | `Fall_through ->
    rop_distance exp.spec >= (Pipeline.config exp.pipeline).rop_gap

(* Drain the tape through the pipeline, in emission order, then reset it.

   Flush points are chosen so the total order of BTB operations is the same
   as if every event had been consumed at emission time: before every
   {!Scd_core.Engine.bop}/{!Scd_core.Engine.jru} (the engine reads and
   writes the shared BTB) and at the end of each bytecode. Under a
   context-switch interval the engine's JTE flush lands after the exact
   retired instruction it would with one-at-a-time consumption, through the
   pipeline's retire boundary, which splits run cells that cross it. The
   pipeline drains whatever the tape holds when the trap returns. *)
let flush exp =
  let tape = exp.tape in
  if Event.tape_cells tape > 0 then begin
    (match exp.trap with None -> () | Some f -> f tape);
    Pipeline.consume_tape exp.pipeline tape;
    Event.tape_clear tape
  end

(* Every emit helper appends one 4-int cell; a payload word the tag does
   not define is [0] for arg1 and [-1] for arg2. *)

let emit_mem exp ~dispatch ~sets_rop ~write pc ~addr =
  let flags =
    (if write then Event.tag_mem_write else Event.tag_mem_read)
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if sets_rop then Event.flag_sets_rop else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:addr ~arg2:(-1)

let emit_cond_branch exp ~dispatch pc ~taken ~target =
  let flags =
    Event.tag_cond_branch
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if taken then Event.flag_taken else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:(-1)

let emit_jump exp pc ~target =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_jump ~arg1:target ~arg2:(-1)

(* [hint = -1] means no compiler hint (non-VBBI schemes). *)
let emit_ind_jump exp ~dispatch pc ~target ~hint =
  let flags =
    Event.tag_ind_jump lor if dispatch then Event.flag_dispatch else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:hint

(* All simulated runtime-helper calls are direct. [link] is the
   architectural return address; calls sit in handler code, so it is
   [pc + step] for the emission stride, not a hardcoded [pc + 4]. *)
let emit_call exp pc ~target ~link =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_call ~arg1:target ~arg2:link

let emit_return exp pc ~target =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_return ~arg1:target ~arg2:(-1)

let emit_bop exp pc ~opcode ~hit ~target =
  let flags =
    Event.tag_bop lor Event.flag_dispatch
    lor if hit then Event.flag_hit else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:opcode

let emit_jru exp pc ~opcode ~target =
  Event.tape_push exp.tape ~pc
    ~flags:(Event.tag_jru lor Event.flag_dispatch)
    ~arg1:target ~arg2:opcode

(* Emit [n] consecutive plain instructions from the cursor as one
   [tag_plain_run] cell. *)
let emit_plain_run exp ~dispatch ~step n =
  if n > 0 then begin
    Event.tape_push_run exp.tape ~pc:exp.epc ~dispatch ~count:n ~stride:step;
    exp.epc <- exp.epc + (n * step)
  end

(* Emit [n] dispatcher instructions starting at the cursor, the first being
   a VM-state load and the last (optionally) a VM-state store. *)
let emit_vm_bookkeeping exp ~step n ~store_last =
  let vm_state = Layout.vm_state_addr exp.layout in
  if n > 0 then begin
    emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
      ~addr:vm_state;
    exp.epc <- exp.epc + step;
    let store = store_last && n > 1 in
    emit_plain_run exp ~dispatch:true ~step (n - 1 - if store then 1 else 0);
    if store then begin
      emit_mem exp ~dispatch:true ~sets_rop:false ~write:true exp.epc
        ~addr:vm_state;
      exp.epc <- exp.epc + step
    end
  end

let emit_plain_dispatch exp ~step n = emit_plain_run exp ~dispatch:true ~step n

(* The tail of the slow/baseline dispatcher: opcode decode, bound check,
   jump-table target computation. Returns with the cursor at the jump
   slot. *)
let emit_decode_to_target exp ~step ~opcode =
  let d = exp.spec.dispatch in
  emit_plain_dispatch exp ~step d.decode_instrs;
  (* bound check: compare + never-taken branch to the error arm *)
  emit_plain_dispatch exp ~step (Int.max 0 (d.bound_check_instrs - 1));
  emit_cond_branch exp ~dispatch:true exp.epc ~taken:false
    ~target:(Layout.default_handler exp.layout);
  exp.epc <- exp.epc + step;
  (* target calculation, ending with the jump-table load *)
  emit_plain_dispatch exp ~step (Int.max 0 (d.target_calc_instrs - 1));
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
    ~addr:(Layout.jump_table_entry exp.layout opcode);
  exp.epc <- exp.epc + step

(* The dispatcher prefix shared by every scheme: loop book-keeping (common
   site only), bytecode fetch, operand decode. Returns the absolute tape
   word holding the fetch address — the only run-dependent word of the
   sequence, which is what the template builder records as the stamp's
   patch offset. *)
let emit_dispatch_prefix exp ~step ~overhead ~fetch_addr =
  let d = exp.spec.dispatch in
  if overhead then
    emit_vm_bookkeeping exp ~step d.loop_overhead_instrs ~store_last:false;
  (* fetch: load vm.pc, load the bytecode, bump, store vm.pc *)
  let vm_state = Layout.vm_state_addr exp.layout in
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
    ~addr:vm_state;
  exp.epc <- exp.epc + step;
  let scd = exp.scheme = Scd_core.Scheme.Scd in
  let fetch_word = Event.tape_extent exp.tape + 2 in
  emit_mem exp ~dispatch:true ~sets_rop:scd ~write:false exp.epc
    ~addr:fetch_addr;
  exp.epc <- exp.epc + step;
  emit_plain_dispatch exp ~step (Int.max 0 (d.fetch_instrs - 3));
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:true exp.epc
    ~addr:vm_state;
  exp.epc <- exp.epc + step;
  emit_plain_dispatch exp ~step d.operand_decode_instrs;
  fetch_word

(* Section IV: with multiple tables each dispatch site has its own Rbop-pc
   register; with one table the sites share it and thrash. *)
let scd_table exp ~site = if exp.multi_table then Layout.site_index site else 0

(* The SCD short-circuit query at the bop. The engine reads the shared
   BTB, so pending events are drained first: the architecturally-visible
   operation order matches per-event consumption. *)
let scd_bop_query exp ~table ~bop_pc ~opcode =
  let same_site = exp.last_bop_pcs.(table) = bop_pc in
  exp.last_bop_pcs.(table) <- bop_pc;
  let ready = rop_ready exp in
  flush exp;
  (* Table I: a hit needs Rbop-pc == PC as well as a valid JTE. *)
  if same_site && ready then
    Scd_core.Engine.bop_target exp.engine ~table ~opcode
  else Scd_core.Engine.no_target

(* The end of the SCD miss arm, with the cursor at the jru slot: the
   JTE-inserting indirect jump to the handler. *)
let scd_finish_miss exp ~table ~opcode ~handler =
  flush exp;
  Scd_core.Engine.jru_code exp.engine ~table ~opcode ~target:handler;
  emit_jru exp exp.epc ~opcode ~target:handler

(* Dispatch reaching the handler of [opcode] for the bytecode at
   [fetch_addr], cell by cell. [base] is where this dispatcher's code
   lives; [overhead] states whether the loop book-keeping prefix is present
   (common site only). Returns the tape word of the fetch address so the
   template builder can reuse this exact emission. *)
let emit_dispatch exp ~base ~step ~overhead ~site ~opcode ~fetch_addr =
  exp.epc <- base;
  let fetch_word = emit_dispatch_prefix exp ~step ~overhead ~fetch_addr in
  let handler = Layout.handler_entry exp.layout opcode in
  (match exp.scheme with
   | Scd ->
     let bop_pc = exp.epc in
     let table = scd_table exp ~site in
     let target = scd_bop_query exp ~table ~bop_pc ~opcode in
     if target <> Scd_core.Engine.no_target then
       emit_bop exp bop_pc ~opcode ~hit:true ~target
     else begin
       emit_bop exp bop_pc ~opcode ~hit:false ~target:(bop_pc + step);
       exp.epc <- bop_pc + step;
       emit_decode_to_target exp ~step ~opcode;
       scd_finish_miss exp ~table ~opcode ~handler
     end
   | Baseline | Jump_threading | Vbbi ->
     emit_decode_to_target exp ~step ~opcode;
     let hint = match exp.scheme with Vbbi -> opcode | _ -> -1 in
     emit_ind_jump exp ~dispatch:true exp.epc ~target:handler ~hint);
  fetch_word

(* Runtime helper / builtin library call appended to a handler body, cell
   by cell, to the blob [b] laid out at [target]. The call is a handler
   instruction emitted at [step] (= the handler's hot stride), so the
   return lands [step] bytes past it — where the layout places the tail
   region; the call cell carries that link so the RAS push matches the
   return target. *)
let emit_blob_cells exp ~step ~target (b : Spec.rt_blob) =
  let return_to = exp.epc + step in
  emit_call exp exp.epc ~target ~link:return_to;
  exp.epc <- target;
  (* The body is a fixed pattern: [load_every - 1] plain instructions then
     one load, repeated, with a trailing plain run. *)
  let mems = b.body_instrs / b.load_every in
  for m = 0 to mems - 1 do
    emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride
      (b.load_every - 1);
    (* helper-internal data traffic lands near the VM stack top *)
    let k = ((m + 1) * b.load_every) - 1 in
    emit_mem exp ~dispatch:false ~sets_rop:false ~write:false exp.epc
      ~addr:(Layout.stack_slot_addr exp.layout (k land 31));
    exp.epc <- exp.epc + Layout.hot_stride
  done;
  emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride
    (b.body_instrs - (mems * b.load_every));
  emit_return exp exp.epc ~target:return_to

(* Helper-call emission, for the helper at index [i] of [spec.blobs] or
   for builtin [i]: one stamp plus three patched call-site words when
   templates are in use (every blob body is run-invariant — its data
   traffic walks fixed stack slots), the cell-by-cell path otherwise.
   Template sets hold one blob per [spec.blobs] index and one per builtin,
   indexed exactly like the layout's, so there is no missing case. *)
let stamp_blob exp ~step t =
  Template.stamp_blob exp.tape t ~call_pc:exp.epc ~link:(exp.epc + step)

let emit_vm_blob exp ~step i =
  match exp.templates with
  | Some ts -> stamp_blob exp ~step ts.Template.blobs.(i)
  | None ->
    emit_blob_cells exp ~step ~target:(Layout.blob_entry exp.layout i)
      exp.spec.blobs.(i)

let emit_builtin exp ~step i =
  match exp.templates with
  | Some ts -> stamp_blob exp ~step ts.Template.builtins.(i)
  | None ->
    emit_blob_cells exp ~step ~target:(Layout.builtin_entry exp.layout i)
      (Layout.builtin_blob exp.layout i)

(* Handler body for one bytecode event. *)
let emit_handler exp (tr : Trace.t) =
  let opcode = tr.opcode in
  let spec_handler = Layout.handler exp.layout opcode in
  exp.epc <- Layout.handler_entry exp.layout opcode;
  let body = spec_handler.body_instrs in
  (* Data accesses occupy the first slots; a control-dependent branch, if
     any, sits at the end of the body. *)
  let n_acc = Trace.access_count tr in
  (* A control-dependent branch, if any, claims the last body slot even
     from a data access; the slots before it are accesses then plains. *)
  let slots = if spec_handler.ctrl_branch then body - 1 else body in
  let mems = Int.min n_acc slots in
  for k = 0 to mems - 1 do
    let addr =
      Layout.access_addr_flat exp.layout ~kind:(Trace.access_kind tr k)
        ~a:(Trace.access_a tr k) ~b:(Trace.access_b tr k)
    in
    emit_mem exp ~dispatch:false ~sets_rop:false
      ~write:(Trace.access_write tr k) exp.epc ~addr;
    exp.epc <- exp.epc + Layout.hot_stride
  done;
  emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride (slots - mems);
  if spec_handler.ctrl_branch then begin
    let taken = tr.ctrl_kind = Trace.ctrl_branch && tr.ctrl_taken in
    emit_cond_branch exp ~dispatch:false exp.epc ~taken
      ~target:(exp.epc + (2 * Layout.hot_stride));
    exp.epc <- exp.epc + Layout.hot_stride
  end;
  (* Runtime helper / builtin library call. *)
  if tr.ctrl_kind = Trace.ctrl_call && tr.ctrl_arg < 0 then
    emit_builtin exp ~step:Layout.hot_stride (-1 - tr.ctrl_arg)
  else
    match spec_handler.rt_call with
    | Some i -> emit_vm_blob exp ~step:Layout.hot_stride i
    | None -> ()

let emit_tail exp opcode =
  match exp.scheme with
  | Scd_core.Scheme.Jump_threading -> () (* the replica is this handler's own dispatcher *)
  | _ ->
    emit_jump exp (Layout.handler_tail exp.layout opcode)
      ~target:(Layout.tail_target exp.layout opcode)

(* The dispatch site that fetches the next bytecode: the handler tail of
   the previous opcode selects it (common site before the first). *)
let dispatch_site exp =
  if exp.prev_opcode < 0 then Layout.Common_site
  else Layout.site_of_opcode exp.layout exp.prev_opcode

(* Cell-by-cell dispatch emission (no templates: the [`Flat_push] test
   reference). *)
let push_dispatch exp ~opcode ~fetch_addr =
  match exp.scheme with
  | Scd_core.Scheme.Jump_threading ->
    if exp.prev_opcode < 0 then
      ignore
        (emit_dispatch exp
           ~base:(Layout.site_base exp.layout Layout.Common_site)
           ~step:4 ~overhead:true ~site:Layout.Common_site ~opcode
           ~fetch_addr
          : int)
    else
      (* a replica is inlined C inside the handler: handler stride *)
      ignore
        (emit_dispatch exp
           ~base:(Layout.handler_tail exp.layout exp.prev_opcode)
           ~step:Layout.hot_stride ~overhead:false ~site:Layout.Common_site
           ~opcode ~fetch_addr
          : int)
  | _ ->
    let site = dispatch_site exp in
    ignore
      (emit_dispatch exp
         ~base:(Layout.site_base exp.layout site)
         ~step:4 ~overhead:(site = Layout.Common_site) ~site ~opcode
         ~fetch_addr
        : int)

(* Template-stamped dispatch: one blit plus a fetch-address patch replaces
   the cell-by-cell derivation. Under SCD only the prefix (and, on a miss,
   the decode sequence) is precompiled — the bop and jru cells carry
   engine decisions made at trace time and stay runtime-pushed, exactly as
   on the cell-by-cell path. *)
let stamp_dispatch exp (ts : Template.set) ~opcode ~fetch_addr =
  match exp.scheme with
  | Scd_core.Scheme.Jump_threading ->
    if exp.prev_opcode < 0 then
      Template.stamp_dispatch exp.tape
        ts.Template.dispatch.(0).(opcode)
        ~fetch_addr
    else
      Template.stamp_replica exp.tape
        ts.Template.replica.(opcode)
        ~base_pc:(Layout.handler_tail exp.layout exp.prev_opcode)
        ~fetch_addr
  | Baseline | Vbbi ->
    let si = Layout.site_index (dispatch_site exp) in
    Template.stamp_dispatch exp.tape
      ts.Template.dispatch.(si).(opcode)
      ~fetch_addr
  | Scd ->
    let site = dispatch_site exp in
    let si = Layout.site_index site in
    let pre = ts.Template.scd_prefix.(si) in
    Template.stamp_dispatch exp.tape pre ~fetch_addr;
    let bop_pc = pre.Template.end_pc in
    let table = scd_table exp ~site in
    let target = scd_bop_query exp ~table ~bop_pc ~opcode in
    let handler = Layout.handler_entry exp.layout opcode in
    if target <> Scd_core.Engine.no_target then
      emit_bop exp bop_pc ~opcode ~hit:true ~target
    else begin
      (* site blocks are compact 4-byte code; the miss template resumes
         at the bop fall-through and ends at the jru slot *)
      emit_bop exp bop_pc ~opcode ~hit:false ~target:(bop_pc + 4);
      let miss = ts.Template.scd_miss.(si).(opcode) in
      Template.stamp exp.tape miss;
      exp.epc <- miss.Template.end_pc;
      scd_finish_miss exp ~table ~opcode ~handler
    end

let on_bytecode exp (tr : Trace.t) =
  exp.bytecodes <- exp.bytecodes + 1;
  let fetch_addr =
    Layout.bytecode_addr exp.layout ~fn:tr.fn ~pc:(tr.pc * exp.stride)
  in
  (* 1. the dispatcher that fetched this bytecode *)
  (match exp.templates with
   | Some ts -> stamp_dispatch exp ts ~opcode:tr.opcode ~fetch_addr
   | None -> push_dispatch exp ~opcode:tr.opcode ~fetch_addr);
  (* 2. the handler itself *)
  emit_handler exp tr;
  (* 3. the tail jump back to a dispatch site (replicas handled in step 1) *)
  emit_tail exp tr.opcode;
  exp.prev_opcode <- tr.opcode;
  (* 4. drain this bytecode's batch through the timing model *)
  flush exp

(* Telemetry wrapper: measure the whole bytecode's expansion (dispatch +
   handler + tail all happen inside [on_bytecode]) and attribute the deltas
   to the dispatch site that fetched it and to its opcode. Only used when a
   telemetry sink is attached; the plain path stays allocation-free. *)
let on_bytecode_observed exp tel (tr : Trace.t) =
  let stats = Pipeline.stats exp.pipeline in
  let cycles0 = stats.Stats.cycles in
  let instructions0 = stats.Stats.instructions in
  let mispredicts0 = Stats.total_mispredicts stats in
  let site =
    (* mirrors the site selection in [on_bytecode] *)
    match exp.scheme with
    | Scd_core.Scheme.Jump_threading -> 0
    | _ ->
      if exp.prev_opcode < 0 then 0
      else Layout.site_index (Layout.site_of_opcode exp.layout exp.prev_opcode)
  in
  on_bytecode exp tr;
  Telemetry.note_bytecode tel ~site ~opcode:tr.opcode
    ~cycles:(stats.Stats.cycles - cycles0)
    ~instructions:(stats.Stats.instructions - instructions0)
    ~mispredicts:(Stats.total_mispredicts stats - mispredicts0)

let trace_callback exp = function
  | None -> on_bytecode exp
  | Some tel -> on_bytecode_observed exp tel

(* ------------------------------------------------------------------ *)
(* Template building                                                   *)
(* ------------------------------------------------------------------ *)

(* Build one scheme's template set by running the cell-by-cell emitters
   into a scratch expander and snapshotting the tape after each sequence —
   the templates are, by construction, the exact cells the push path would
   emit (the differential tests compare the two word-for-word). Code
   addresses depend only on (spec, scheme), so {!Template.find_or_build}
   memoizes the result process-wide; the builder runs once per key. *)
let build_templates ~layout ~(spec : Spec.t) ~scheme ~pipeline ~engine =
  let b =
    {
      layout;
      spec;
      scheme;
      pipeline;
      engine;
      stride = 1 (* never used: the builder sees no bytecode fetches *);
      multi_table = false;
      prev_opcode = -1;
      last_bop_pcs = Array.make 3 (-1);
      bytecodes = 0;
      epc = 0;
      tape = Event.tape_create ~capacity:256 ();
      trap = None;
      templates = None (* the builder itself emits cell by cell *);
    }
  in
  let snap () =
    let cells = Event.tape_snapshot b.tape ~from:0 in
    Event.tape_clear b.tape;
    cells
  in
  let n = spec.num_opcodes in
  let sites = [| Layout.Common_site; Layout.Call_site; Layout.Branch_site |] in
  let none = [||] in
  let dispatch = Array.make 3 none in
  let scd_prefix = Array.make 3 Template.empty in
  let scd_miss = Array.make 3 none in
  let scd = scheme = Scd_core.Scheme.Scd in
  Array.iteri
    (fun si site ->
      let base = Layout.site_base layout site in
      let overhead = site = Layout.Common_site in
      if scd then begin
        b.epc <- base;
        let fp = emit_dispatch_prefix b ~step:4 ~overhead ~fetch_addr:0 in
        let bop_pc = b.epc in
        scd_prefix.(si) <-
          Template.make ~fetch_patch:fp ~end_pc:bop_pc (snap ());
        scd_miss.(si) <-
          Array.init n (fun opcode ->
              b.epc <- bop_pc + 4;
              emit_decode_to_target b ~step:4 ~opcode;
              Template.make ~end_pc:b.epc (snap ()))
      end
      else
        dispatch.(si) <-
          Array.init n (fun opcode ->
              let fp =
                emit_dispatch b ~base ~step:4 ~overhead ~site ~opcode
                  ~fetch_addr:0
              in
              Template.make ~fetch_patch:fp (snap ())))
    sites;
  let replica =
    if scheme = Scd_core.Scheme.Jump_threading then
      (* Base-relative: stamped at the previous handler's tail, so cell PCs
         are offsets from 0 and relocated at stamp time. *)
      Array.init n (fun opcode ->
          let fp =
            emit_dispatch b ~base:0 ~step:Layout.hot_stride ~overhead:false
              ~site:Layout.Common_site ~opcode ~fetch_addr:0
          in
          Template.make ~fetch_patch:fp (snap ()))
    else [||]
  in
  let blob ~target (blob : Spec.rt_blob) =
    b.epc <- 0 (* the call-site words are patched at stamp time *);
    emit_blob_cells b ~step:Layout.hot_stride ~target blob;
    Template.make (snap ())
  in
  let blobs =
    Array.mapi
      (fun i -> blob ~target:(Layout.blob_entry layout i))
      spec.blobs
  in
  let builtins =
    Array.init Builtins.count (fun i ->
        blob ~target:(Layout.builtin_entry layout i)
          (Layout.builtin_blob layout i))
  in
  { Template.dispatch; replica; scd_prefix; scd_miss; blobs; builtins }

(* ------------------------------------------------------------------ *)

(* Each phase of [run] is a host-profiler span (Scd_obs.Prof): with no
   profile active the span calls cost one ref load each per run; with
   `scdsim prof` the phases' wall time and GC counter deltas are attributed
   by name, nested under whatever span the caller opened. *)
let run ?telemetry ?(event_path = `Flat) ?tape_trap config ~source =
  let btb, engine, pipeline, (module F : Frontend.S), options, spec =
    Scd_obs.Prof.span "setup" (fun () ->
        (* simulated heap addresses derive from table ids: restart the
           counter so results do not depend on earlier runs in this
           process *)
        Scd_runtime.Value.reset_table_ids ();
        (match config.context_switch_interval with
         | Some n when n <= 0 ->
           invalid_arg "Driver.run: context_switch_interval must be positive"
         | _ -> ());
        let machine = config.machine in
        let btb =
          Btb.create ~entries:machine.btb_entries ~ways:machine.btb_ways
            ~replacement:machine.btb_replacement ?jte_cap:machine.jte_cap ()
        in
        let engine =
          Scd_core.Engine.create
            ~tables:(if config.multi_table then 3 else 1)
            btb
        in
        let indirect =
          match config.indirect_override with
          | Some scheme -> scheme
          | None -> Scd_core.Scheme.indirect_scheme config.scheme
        in
        let pipeline = Pipeline.create ~btb ~indirect machine in
        (* From here on the driver is VM-agnostic: everything
           interpreter-specific lives behind [config.frontend]. *)
        let (module F : Frontend.S) = config.frontend in
        let options =
          {
            Frontend.superinstructions = config.superinstructions;
            bytecode_replication = config.bytecode_replication;
          }
        in
        (btb, engine, pipeline, (module F : Frontend.S), options,
         F.spec options))
  in
  (match telemetry with
   | None -> ()
   | Some tel -> Telemetry.attach tel ~pipeline ~engine);
  let program = Scd_obs.Prof.span "compile" (fun () -> F.compile options source) in
  let layout =
    Scd_obs.Prof.span "layout" (fun () ->
        Layout.build ~spec ~scheme:config.scheme
          ~fn_code_sizes:(F.fn_code_sizes program)
          ~fn_const_counts:(F.fn_const_counts program))
  in
  let templates =
    match event_path with
    | `Flat ->
      Some
        (Scd_obs.Prof.span "templates" (fun () ->
             Template.find_or_build ~spec ~scheme:config.scheme (fun () ->
                 build_templates ~layout ~spec ~scheme:config.scheme ~pipeline
                   ~engine)))
    | `Flat_push ->
      (* the test-only reference: the template builder's own cell-by-cell
         emitters, compared word for word against the stamps *)
      None
  in
  let exp =
    {
      layout;
      spec;
      scheme = config.scheme;
      pipeline;
      engine;
      stride = F.stride;
      multi_table = config.multi_table;
      prev_opcode = -1;
      last_bop_pcs = Array.make 3 (-1);
      bytecodes = 0;
      epc = 0;
      tape = Event.tape_create ~capacity:256 ();
      trap = tape_trap;
      templates;
    }
  in
  (match config.context_switch_interval with
   | Some interval ->
     Pipeline.set_retire_boundary pipeline ~every:interval (fun () ->
         Scd_core.Engine.context_switch engine)
   | None -> ());
  let ctx = Builtins.create_ctx ~seed:config.seed () in
  Scd_obs.Prof.span "execute" (fun () ->
      F.run program ~ctx ~trace:(trace_callback exp telemetry));
  (match telemetry with None -> () | Some tel -> Telemetry.finish tel);
  Atomic.incr run_counter;
  (* The result is a pure snapshot: copy every stats block out of the live
     simulation structures so callers (and the persistent cache) can hold
     it after this pipeline is gone. *)
  Scd_obs.Prof.span "snapshot" (fun () ->
      {
        stats = Stats.copy (Pipeline.stats pipeline);
        btb = Btb.copy_stats (Btb.stats btb);
        engine =
          (match config.scheme with
           | Scd ->
             Some (Scd_core.Engine.copy_stats (Scd_core.Engine.stats engine))
           | _ -> None);
        bytecodes = exp.bytecodes;
        output = Builtins.output ctx;
        code_bytes = Layout.code_bytes layout;
      })

let cycles r = r.stats.Stats.cycles
let instructions r = r.stats.Stats.instructions
