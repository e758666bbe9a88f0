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
  rop_ready : bool;  (* Rop is ready when a bop issues (fixed per run) *)
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
         walking the dispatcher cell by cell. Only on [`Flat]; [`Flat_push]
         keeps the cell-by-cell walk for differential testing. *)
}

(* Drain the tape through the pipeline, in emission order, then reset it.

   Flush points are chosen so the total order of BTB operations is the same
   as if every event had been consumed at emission time: before every
   {!Scd_core.Engine.bop_target}/{!Scd_core.Engine.jru_code} (the engine
   reads and writes the shared BTB) and at the end of each bytecode. Under
   a context-switch interval the engine's JTE flush lands after the exact
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

let emit_mem tape ~dispatch ~sets_rop ~write pc ~addr =
  let flags =
    (if write then Event.tag_mem_write else Event.tag_mem_read)
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if sets_rop then Event.flag_sets_rop else 0
  in
  Event.tape_push tape ~pc ~flags ~arg1:addr ~arg2:(-1)

let emit_cond_branch tape ~dispatch pc ~taken ~target =
  let flags =
    Event.tag_cond_branch
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if taken then Event.flag_taken else 0
  in
  Event.tape_push tape ~pc ~flags ~arg1:target ~arg2:(-1)

let emit_jump tape pc ~target =
  Event.tape_push tape ~pc ~flags:Event.tag_jump ~arg1:target ~arg2:(-1)

(* All simulated runtime-helper calls are direct. [link] is the
   architectural return address; calls sit in handler code, so it is
   [pc + step] for the emission stride, not a hardcoded [pc + 4]. *)
let emit_call tape pc ~target ~link =
  Event.tape_push tape ~pc ~flags:Event.tag_call ~arg1:target ~arg2:link

let emit_return tape pc ~target =
  Event.tape_push tape ~pc ~flags:Event.tag_return ~arg1:target ~arg2:(-1)

let emit_bop tape pc ~opcode ~hit ~target =
  let flags =
    Event.tag_bop lor Event.flag_dispatch
    lor if hit then Event.flag_hit else 0
  in
  Event.tape_push tape ~pc ~flags ~arg1:target ~arg2:opcode

let emit_jru tape pc ~opcode ~target =
  Event.tape_push tape ~pc
    ~flags:(Event.tag_jru lor Event.flag_dispatch)
    ~arg1:target ~arg2:opcode

(* Emit [n] consecutive plain instructions from the cursor as one
   [tag_plain_run] cell. *)
let emit_plain_run exp ~dispatch ~step n =
  if n > 0 then begin
    Event.tape_push_run exp.tape ~pc:exp.epc ~dispatch ~count:n ~stride:step;
    exp.epc <- exp.epc + (n * step)
  end

(* Instructions [lo, hi) of dispatcher [d], instruction [i] at
   [base + i * step], reaching the handler of [opcode] for the bytecode at
   [fetch_addr]: one dispatch cell per instruction, consecutive plain
   instructions merged into one run cell. The [bop] and the [jru] carry
   engine decisions, so the caller pushes those. Returns the tape word
   holding the fetch address ([-1] when the slice has no fetch): the only
   run-dependent word of a dispatcher, which the template builder records
   as the stamp's patch offset. *)
let walk_dispatcher tape layout (d : Dispatcher.t) ~base ~step ~lo ~hi
    ~opcode ~fetch_addr ~hint =
  let fetch_word = ref (-1) in
  for i = lo to hi - 1 do
    let pc = base + (i * step) in
    let push ?(arg2 = -1) tag arg1 =
      Event.tape_push tape ~pc ~flags:(tag lor Event.flag_dispatch) ~arg1 ~arg2
    in
    match (d.roles.(i), d.instrs.(i)) with
    | Plain, _ ->
      Event.tape_push_run tape ~pc ~dispatch:true ~count:1 ~stride:step
    | Vm_load, _ -> push Event.tag_mem_read (Layout.vm_state_addr layout)
    | Vm_store, _ -> push Event.tag_mem_write (Layout.vm_state_addr layout)
    | Fetch, instr ->
      fetch_word := Event.tape_extent tape + 2;
      let sets_rop =
        match instr with Load { op_suffix; _ } -> op_suffix | _ -> false
      in
      push
        (Event.tag_mem_read lor if sets_rop then Event.flag_sets_rop else 0)
        fetch_addr
    | Bound_check, _ ->
      push Event.tag_cond_branch (Layout.default_handler layout)
    | Jt_load, _ ->
      push Event.tag_mem_read (Layout.jump_table_entry layout opcode)
    | Jump, Jalr _ ->
      push Event.tag_ind_jump (Layout.handler_entry layout opcode) ~arg2:hint
    | (Jump | Bop), _ ->
      invalid_arg "Driver.walk_dispatcher: bop and jru carry engine decisions"
  done;
  !fetch_word

(* Which dispatcher fetches the next bytecode: the one place the driver
   chooses. [replica] is the jump-threading replica at the previous
   handler's tail; otherwise the result is the {!Layout.site_index} of the
   site block the previous handler's tail jumps to (the common site before
   the first bytecode, for every scheme). *)
let replica = -1

let dispatch_site exp =
  if exp.prev_opcode < 0 then 0
  else
    match exp.scheme with
    | Scd_core.Scheme.Jump_threading -> replica
    | Baseline | Vbbi | Scd ->
      Layout.site_index (Layout.site_of_opcode exp.layout exp.prev_opcode)

let sites = [| Layout.Common_site; Layout.Call_site; Layout.Branch_site |]

(* Section IV: with multiple tables each dispatch site has its own Rbop-pc
   register; with one table the sites share it and thrash. *)
let scd_table exp si = if exp.multi_table then si else 0

(* The SCD bop at [bop_pc] for dispatch site [si]: query the engine, push
   the bop cell and answer whether it hit. The engine reads the shared
   BTB, so pending events are drained first: the architecturally-visible
   operation order matches per-event consumption. On a miss the caller
   emits the slow path up to the jru slot, then {!scd_finish_miss}. *)
let scd_bop exp ~si ~bop_pc ~opcode =
  let table = scd_table exp si in
  let same_site = exp.last_bop_pcs.(table) = bop_pc in
  exp.last_bop_pcs.(table) <- bop_pc;
  flush exp;
  (* Table I: a hit needs Rbop-pc == PC as well as a valid JTE. *)
  let target =
    if same_site && exp.rop_ready then
      Scd_core.Engine.bop_target exp.engine ~table ~opcode
    else Scd_core.Engine.no_target
  in
  let hit = target <> Scd_core.Engine.no_target in
  (* a miss falls through: site blocks are compact 4-byte code *)
  emit_bop exp.tape bop_pc ~opcode ~hit
    ~target:(if hit then target else bop_pc + 4);
  hit

(* The end of the SCD miss arm: the JTE-inserting indirect jump at
   [jru_pc] to the handler. *)
let scd_finish_miss exp ~si ~jru_pc ~opcode =
  let handler = Layout.handler_entry exp.layout opcode in
  flush exp;
  Scd_core.Engine.jru_code exp.engine ~table:(scd_table exp si) ~opcode
    ~target:handler;
  emit_jru exp.tape jru_pc ~opcode ~target:handler

let vbbi_hint scheme opcode =
  match (scheme : Scd_core.Scheme.t) with
  | Vbbi -> opcode
  | Baseline | Jump_threading | Scd -> -1

(* Cell-by-cell dispatch emission, walking the dispatcher itself (no
   templates: the [`Flat_push] test reference). *)
let push_dispatch exp ~opcode ~fetch_addr =
  let si = dispatch_site exp in
  let walk d ~base ~step ~lo ~hi =
    ignore
      (walk_dispatcher exp.tape exp.layout d ~base ~step ~lo ~hi ~opcode
         ~fetch_addr ~hint:(vbbi_hint exp.scheme opcode)
        : int)
  in
  if si = replica then
    (* a replica is inlined C inside the handler: handler stride *)
    let d = Dispatcher.get exp.spec exp.scheme ~overhead:false in
    walk d ~base:(Layout.handler_tail exp.layout exp.prev_opcode)
      ~step:Layout.hot_stride ~lo:0 ~hi:(Dispatcher.length d)
  else
    let d = Dispatcher.get exp.spec exp.scheme ~overhead:(si = 0) in
    let base = Layout.site_base exp.layout sites.(si) in
    let last = Dispatcher.length d - 1 in
    if d.bop < 0 then walk d ~base ~step:4 ~lo:0 ~hi:(last + 1)
    else begin
      walk d ~base ~step:4 ~lo:0 ~hi:d.bop;
      if not (scd_bop exp ~si ~bop_pc:(base + (4 * d.bop)) ~opcode) then begin
        walk d ~base ~step:4 ~lo:(d.bop + 1) ~hi:last;
        scd_finish_miss exp ~si ~jru_pc:(base + (4 * last)) ~opcode
      end
    end

(* Template-stamped dispatch: one blit plus a fetch-address patch replaces
   the cell-by-cell walk. Under SCD only the prefix (and, on a miss, the
   decode sequence) is precompiled — the bop and jru cells carry engine
   decisions made at trace time and stay runtime-pushed, exactly as on the
   cell-by-cell path. *)
let stamp_dispatch exp (ts : Template.set) ~opcode ~fetch_addr =
  let si = dispatch_site exp in
  if si = replica then
    Template.stamp_replica exp.tape
      ts.Template.replica.(opcode)
      ~base_pc:(Layout.handler_tail exp.layout exp.prev_opcode)
      ~fetch_addr
  else begin
    let t = ts.Template.dispatch.(si).(opcode) in
    Template.stamp_dispatch exp.tape t ~fetch_addr;
    match exp.scheme with
    | Scd ->
      if not (scd_bop exp ~si ~bop_pc:t.Template.end_pc ~opcode) then begin
        (* the miss template resumes at the bop fall-through and ends at
           the jru slot *)
        let miss = ts.Template.scd_miss.(si).(opcode) in
        Template.stamp exp.tape miss;
        scd_finish_miss exp ~si ~jru_pc:miss.Template.end_pc ~opcode
      end
    | Baseline | Jump_threading | Vbbi -> ()
  end

(* Runtime helper / builtin library call appended to a handler body, cell
   by cell: the call at [pc] to the blob [b] laid out at [target]. The call
   is a handler instruction, so the return lands [hot_stride] bytes past
   it — where the layout places the tail region; the call cell carries
   that link so the RAS push matches the return target. Every
   [load_every]-th body instruction is a load near the VM stack top, the
   rest are plain. *)
let emit_blob_cells tape layout ~pc ~target (b : Spec.rt_blob) =
  let step = Layout.hot_stride in
  emit_call tape pc ~target ~link:(pc + step);
  for k = 0 to b.body_instrs - 1 do
    let at = target + (k * step) in
    if (k + 1) mod b.load_every = 0 then
      emit_mem tape ~dispatch:false ~sets_rop:false ~write:false at
        ~addr:(Layout.stack_slot_addr layout (k land 31))
    else Event.tape_push_run tape ~pc:at ~dispatch:false ~count:1 ~stride:step
  done;
  emit_return tape (target + (b.body_instrs * step)) ~target:(pc + step)

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
    emit_blob_cells exp.tape exp.layout ~pc:exp.epc
      ~target:(Layout.blob_entry exp.layout i) exp.spec.blobs.(i)

let emit_builtin exp ~step i =
  match exp.templates with
  | Some ts -> stamp_blob exp ~step ts.Template.builtins.(i)
  | None ->
    emit_blob_cells exp.tape exp.layout ~pc:exp.epc
      ~target:(Layout.builtin_entry exp.layout i)
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
    emit_mem exp.tape ~dispatch:false ~sets_rop:false
      ~write:(Trace.access_write tr k) exp.epc ~addr;
    exp.epc <- exp.epc + Layout.hot_stride
  done;
  emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride (slots - mems);
  if spec_handler.ctrl_branch then begin
    let taken = tr.ctrl_kind = Trace.ctrl_branch && tr.ctrl_taken in
    emit_cond_branch exp.tape ~dispatch:false exp.epc ~taken
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
    emit_jump exp.tape (Layout.handler_tail exp.layout opcode)
      ~target:(Layout.tail_target exp.layout opcode)

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
  (* jump-threading replicas are attributed to the common site *)
  let site = Int.max 0 (dispatch_site exp) in
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

(* Build one scheme's template set by walking the dispatcher onto an empty
   tape and snapshotting it after each sequence — the templates are, by
   construction, the exact cells the cell-by-cell path walks (the
   differential tests compare the two word-for-word). Code addresses
   depend only on (spec, scheme), so {!Template.find_or_build} memoizes the
   result process-wide; the builder runs once per key. *)
let build_templates ~layout ~(spec : Spec.t) ~scheme =
  let tape = Event.tape_create ~capacity:256 () in
  let snap () =
    let cells = Event.tape_snapshot tape ~from:0 in
    Event.tape_clear tape;
    cells
  in
  let template ?end_pc d ~base ~step ~lo ~hi ~opcode =
    let fetch_patch =
      walk_dispatcher tape layout d ~base ~step ~lo ~hi ~opcode ~fetch_addr:0
        ~hint:(vbbi_hint scheme opcode)
    in
    Template.make ~fetch_patch ?end_pc (snap ())
  in
  let n = spec.num_opcodes in
  let dispatch = Array.make 3 [||] and scd_miss = Array.make 3 [||] in
  Array.iteri
    (fun si site ->
      let base = Layout.site_base layout site in
      let d = Dispatcher.get spec scheme ~overhead:(si = 0) in
      let last = Dispatcher.length d - 1 in
      if d.bop < 0 then
        dispatch.(si) <-
          Array.init n (fun opcode ->
              template d ~base ~step:4 ~lo:0 ~hi:(last + 1) ~opcode)
      else begin
        let prefix =
          template d ~base ~step:4 ~lo:0 ~hi:d.bop ~opcode:0
            ~end_pc:(base + (4 * d.bop))
        in
        dispatch.(si) <- Array.make n prefix;
        scd_miss.(si) <-
          Array.init n (fun opcode ->
              template d ~base ~step:4 ~lo:(d.bop + 1) ~hi:last ~opcode
                ~end_pc:(base + (4 * last)))
      end)
    sites;
  let replica =
    match (scheme : Scd_core.Scheme.t) with
    | Jump_threading ->
      (* Base-relative: stamped at the previous handler's tail, so cell PCs
         are offsets from 0 and relocated at stamp time. *)
      let d = Dispatcher.get spec scheme ~overhead:false in
      Array.init n (fun opcode ->
          template d ~base:0 ~step:Layout.hot_stride ~lo:0
            ~hi:(Dispatcher.length d) ~opcode)
    | Baseline | Vbbi | Scd -> [||]
  in
  (* the call-site words are patched at stamp time *)
  let blob ~target b =
    emit_blob_cells tape layout ~pc:0 ~target b;
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
  { Template.dispatch; replica; scd_miss; blobs; builtins }

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
                 build_templates ~layout ~spec ~scheme:config.scheme)))
    | `Flat_push ->
      (* the test-only reference: the template builder's own walk of the
         dispatcher, compared word for word against the stamps *)
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
      rop_ready =
        (match config.machine.bop_policy with
         | `Stall -> true (* the pipeline charges bubbles instead *)
         | `Fall_through ->
           Dispatcher.rop_gap
             (Dispatcher.get spec config.scheme ~overhead:true)
           >= config.machine.rop_gap);
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
