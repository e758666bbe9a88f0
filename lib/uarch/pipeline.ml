open Scd_isa

type t = {
  config : Config.t;
  btb : Btb.t;
  direction : Direction.t;
  indirect : Indirect.t;
  ras : Ras.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t option;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  stats : Stats.t;
  mutable probe : Scd_obs.Probe.t;
      (* Telemetry hooks, [Probe.null] unless a sink attached one. All call
         sites guard with a physical-equality check against [Probe.null], so
         the un-instrumented hot path costs one comparison and allocates
         nothing. *)
  fetch_shift : int;
      (* log2 of the I-cache block size, precomputed: {!fetch} runs once per
         retired instruction and a division there is measurable. *)
  mutable last_fetch_block : int;
  mutable last_fetch_page : int;
      (* Page of the last I-TLB lookup, which {!fetch_block} repeats only
         on a page change: [fetch] is the I-TLB's only client. *)
  mutable pair_open : bool; (* a second issue slot remains this cycle *)
  mutable group_has_mem : bool;
  mutable last_rop_index : int; (* instruction index of last .op producer *)
  mutable boundary_every : int; (* retire-boundary period *)
  mutable boundary_at : int;
      (* retired count of the next boundary; [max_int] while unarmed *)
  mutable on_boundary : unit -> unit;
}

let create ?btb ?(indirect = Indirect.Pc_btb) (config : Config.t) =
  let btb =
    match btb with
    | Some b -> b
    | None ->
      Btb.create ~entries:config.btb_entries ~ways:config.btb_ways
        ~replacement:config.btb_replacement ?jte_cap:config.jte_cap ()
  in
  {
    config;
    btb;
    direction = Direction.create config.direction;
    indirect = Indirect.create indirect btb;
    ras = Ras.create ~depth:config.ras_depth;
    icache = Cache.create config.icache;
    dcache = Cache.create config.dcache;
    l2 = Option.map Cache.create config.l2;
    itlb = Tlb.create ~entries:config.itlb_entries;
    dtlb = Tlb.create ~entries:config.dtlb_entries;
    stats = Stats.create ();
    probe = Scd_obs.Probe.null;
    fetch_shift = Scd_util.Bits.log2 config.icache.block_bytes;
    last_fetch_block = -1;
    last_fetch_page = -1;
    pair_open = false;
    group_has_mem = false;
    last_rop_index = min_int;
    boundary_every = 0;
    boundary_at = max_int;
    on_boundary = ignore;
  }

let config t = t.config
let btb t = t.btb
let stats t = t.stats
let set_probe t probe = t.probe <- probe
let probe t = t.probe

let set_retire_boundary t ~every f =
  if every <= 0 then invalid_arg "Pipeline.set_retire_boundary: every";
  t.boundary_every <- every;
  t.boundary_at <- t.stats.instructions + every;
  t.on_boundary <- f

let stall t cycles = t.stats.cycles <- t.stats.cycles + cycles

(* Charge a miss that goes to L2 (if present) and possibly DRAM. *)
let miss_below t ~addr =
  match t.l2 with
  | None ->
    t.stats.cycles <- t.stats.cycles + t.config.mem_latency
  | Some l2 -> (
    match Cache.access l2 ~addr with
    | `Hit -> t.stats.cycles <- t.stats.cycles + t.config.l2_latency
    | `Miss ->
      t.stats.l2_misses <- t.stats.l2_misses + 1;
      t.stats.cycles <-
        t.stats.cycles + t.config.l2_latency + t.config.mem_latency)

(* A fetch that leaves the last fetched block: the I-cache access, and the
   I-TLB lookup when the page changed too. A same-page lookup would hit the
   slot the previous lookup stamped, and that slot already holds the TLB's
   largest stamp, so skipping the re-stamp changes no later LRU victim and
   no count. *)
let[@inline never] fetch_block t pc block =
  t.last_fetch_block <- block;
  let page = pc lsr Tlb.page_shift in
  if page <> t.last_fetch_page then begin
    t.last_fetch_page <- page;
    match Tlb.access t.itlb ~addr:pc with
    | `Hit -> ()
    | `Miss ->
      t.stats.itlb_misses <- t.stats.itlb_misses + 1;
      stall t t.config.tlb_penalty
  end;
  t.stats.icache_accesses <- t.stats.icache_accesses + 1;
  match Cache.access t.icache ~addr:pc with
  | `Hit -> ()
  | `Miss ->
    t.stats.icache_misses <- t.stats.icache_misses + 1;
    miss_below t ~addr:pc

(* Sequential fetches within one block are free: only the block compare
   inlines into the caller. *)
let[@inline] fetch t pc =
  let block = pc lsr t.fetch_shift in
  if block <> t.last_fetch_block then fetch_block t pc block

let data_access t addr =
  (match Tlb.access t.dtlb ~addr with
   | `Hit -> ()
   | `Miss ->
     t.stats.dtlb_misses <- t.stats.dtlb_misses + 1;
     stall t t.config.tlb_penalty);
  t.stats.dcache_accesses <- t.stats.dcache_accesses + 1;
  match Cache.access t.dcache ~addr with
  | `Hit -> ()
  | `Miss ->
    t.stats.dcache_misses <- t.stats.dcache_misses + 1;
    miss_below t ~addr

(* Issue-slot accounting: single issue charges a cycle per instruction;
   dual issue pairs the current instruction into the open slot when legal.
   At width 1 [pair_open] is invariantly false (only the wider arm below
   ever sets it), so the general code reduces to its first two updates. *)
let[@inline] issue t ~mem ~control =
  if t.config.issue_width = 1 then begin
    t.stats.cycles <- t.stats.cycles + 1;
    t.group_has_mem <- mem
  end
  else begin
    let pairable = t.pair_open && not (mem && t.group_has_mem) in
    if pairable then begin
      t.pair_open <- false;
      if mem then t.group_has_mem <- true
    end
    else begin
      t.stats.cycles <- t.stats.cycles + 1;
      t.pair_open <- t.config.issue_width > 1;
      t.group_has_mem <- mem
    end;
    (* A control instruction always closes its issue group. *)
    if control then t.pair_open <- false
  end

let mispredict t ~dispatch =
  stall t t.config.branch_penalty;
  t.pair_open <- false;
  if dispatch then
    t.stats.mispredicts_dispatch <- t.stats.mispredicts_dispatch + 1;
  if t.probe != Scd_obs.Probe.null then
    t.probe.Scd_obs.Probe.on_mispredict ~dispatch

(* One tape cell that is neither a run nor a memory access (those two are
   handled in {!consume_tape} itself) — [tag] is decoded from [flags], the
   cell's packed flags word, [arg1] is the branch target, [arg2] the
   hint / opcode / call link. Payload booleans are decoded from [flags]
   only in the branch that reads them, and nothing is written back to a
   record, so consuming a cell touches no memory beyond the model's own
   state. *)
let consume_cell t ~pc ~flags ~tag ~arg1 ~arg2 =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  let dispatch = flags land Event.flag_dispatch <> 0 in
  if dispatch then s.dispatch_instructions <- s.dispatch_instructions + 1;
  if flags land Event.flag_sets_rop <> 0 then
    t.last_rop_index <- s.instructions;
  fetch t pc;
  issue t ~mem:false
    ~control:(tag >= Event.tag_cond_branch && tag <= Event.tag_jru);
  if tag = Event.tag_plain || tag = Event.tag_jte_flush then ()
  else if tag = Event.tag_cond_branch then begin
    let taken = flags land Event.flag_taken <> 0 in
    s.cond_branches <- s.cond_branches + 1;
    let predicted_taken = Direction.predict t.direction ~pc in
    let predicted_target =
      if predicted_taken then Btb.lookup_target t.btb ~jte:false ~key:pc
      else Btb.no_target
    in
    if not (Bool.equal predicted_taken taken) then begin
      s.cond_mispredicts <- s.cond_mispredicts + 1;
      mispredict t ~dispatch
    end
    else if taken && predicted_target == Btb.no_target then begin
      (* Direction was right but fetch could not redirect: the target is
         computed at decode (direct branch), costing a shorter bubble. *)
      s.direct_target_misses <- s.direct_target_misses + 1;
      stall t t.config.direct_bubble
    end;
    Direction.update t.direction ~pc ~taken;
    if taken then Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
  end
  else if tag = Event.tag_jump then begin
    s.direct_jumps <- s.direct_jumps + 1;
    if Btb.lookup_target t.btb ~jte:false ~key:pc == Btb.no_target
    then begin
      s.direct_target_misses <- s.direct_target_misses + 1;
      stall t t.config.direct_bubble;
      Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
    end
  end
  else if tag = Event.tag_call then begin
    (* The architectural link: [arg2] carries it for calls emitted at a
       non-default stride (jump-threading replicas); [-1] = [pc + 4]. *)
    Ras.push t.ras (if arg2 >= 0 then arg2 else pc + 4);
    if flags land Event.flag_indirect <> 0 then begin
      s.indirect_jumps <- s.indirect_jumps + 1;
      let predicted =
        Indirect.predict_target t.indirect ~pc ~hint:Indirect.no_hint
      in
      if predicted <> arg1 then begin
        s.indirect_mispredicts <- s.indirect_mispredicts + 1;
        mispredict t ~dispatch
      end;
      Indirect.update_target t.indirect ~pc ~hint:Indirect.no_hint
        ~target:arg1
    end
    else begin
      s.direct_jumps <- s.direct_jumps + 1;
      if Btb.lookup_target t.btb ~jte:false ~key:pc == Btb.no_target
      then begin
        s.direct_target_misses <- s.direct_target_misses + 1;
        stall t t.config.direct_bubble;
        Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
      end
    end
  end
  else if tag = Event.tag_return then begin
    s.returns <- s.returns + 1;
    if Ras.pop_target t.ras <> arg1 then begin
      s.return_mispredicts <- s.return_mispredicts + 1;
      mispredict t ~dispatch
    end
  end
  else if tag = Event.tag_ind_jump then begin
    s.indirect_jumps <- s.indirect_jumps + 1;
    let hint = if arg2 < 0 then Indirect.no_hint else arg2 in
    let predicted = Indirect.predict_target t.indirect ~pc ~hint in
    if predicted <> arg1 then begin
      s.indirect_mispredicts <- s.indirect_mispredicts + 1;
      mispredict t ~dispatch
    end;
    Indirect.update_target t.indirect ~pc ~hint ~target:arg1
  end
  else if tag = Event.tag_jru then begin
    (* Times exactly like a plain indirect jump; the JTE insertion has been
       done by the SCD engine against the shared BTB. *)
    s.jru_count <- s.jru_count + 1;
    s.indirect_jumps <- s.indirect_jumps + 1;
    let predicted =
      Indirect.predict_target t.indirect ~pc ~hint:Indirect.no_hint
    in
    if predicted <> arg1 then begin
      s.indirect_mispredicts <- s.indirect_mispredicts + 1;
      mispredict t ~dispatch
    end;
    Indirect.update_target t.indirect ~pc ~hint:Indirect.no_hint
      ~target:arg1
  end
  else begin
    (* tag_bop *)
    s.bop_count <- s.bop_count + 1;
    (* Rop-not-ready stall: the paper's default (stalling) scheme inserts
       bubbles until the .op producer has reached Execute; under the
       fall-through policy the driver already turned an unready bop into an
       architectural miss, so no bubbles are charged here. *)
    (match t.config.bop_policy with
     | `Stall ->
       let distance = s.instructions - t.last_rop_index in
       let bubbles = max 0 (t.config.rop_gap - distance) in
       if bubbles > 0 then begin
         s.bop_stall_cycles <- s.bop_stall_cycles + bubbles;
         stall t bubbles
       end
     | `Fall_through -> ());
    if flags land Event.flag_hit <> 0 then begin
      s.bop_hits <- s.bop_hits + 1;
      stall t t.config.bop_hit_bubble;
      t.pair_open <- false
    end
  end;
  (* Retirement hook last, so interval samplers observe this instruction's
     cycle and miss accounting in full. *)
  if t.probe != Scd_obs.Probe.null then t.probe.Scd_obs.Probe.on_retire ()

(* Consume a run of [count] plain instructions starting at [pc], spaced
   [stride] bytes apart, in aggregate. Bit-identical to consuming them one
   by one: instruction/dispatch counts add up, the I-side is touched once
   per cache-block transition exactly as the per-instruction [fetch]
   short-circuit would, and on a single-issue machine each plain
   instruction costs one cycle. With a probe attached or a dual-issue
   front end the exact per-instruction loop runs instead (retire hooks and
   pairing state are per-instruction observable). *)
let consume_plain_run t ~pc ~dispatch ~count ~stride =
  let s = t.stats in
  if t.probe == Scd_obs.Probe.null && t.config.issue_width = 1 then begin
    s.instructions <- s.instructions + count;
    if dispatch then
      s.dispatch_instructions <- s.dispatch_instructions + count;
    fetch t pc;
    (* Touch each later block at its boundary: any pc inside a block is
       equivalent for the I-TLB (blocks never straddle pages) and the
       I-cache (same line), so stats, ticks and stamps match the
       per-instruction walk. [stride <= block_bytes], so no block between
       the first and last is skipped. *)
    let last_block = (pc + (stride * (count - 1))) lsr t.fetch_shift in
    for b = (pc lsr t.fetch_shift) + 1 to last_block do
      fetch t (b lsl t.fetch_shift)
    done;
    (* Single issue, [pair_open] invariantly false: one cycle each, and the
       last instruction leaves a fresh mem-free issue group. *)
    s.cycles <- s.cycles + count;
    t.group_has_mem <- false
  end
  else
    for k = 0 to count - 1 do
      s.instructions <- s.instructions + 1;
      if dispatch then
        s.dispatch_instructions <- s.dispatch_instructions + 1;
      fetch t (pc + (k * stride));
      issue t ~mem:false ~control:false;
      if t.probe != Scd_obs.Probe.null then t.probe.Scd_obs.Probe.on_retire ()
    done

(* Fire every retire boundary the retired count has reached. *)
let cross_boundaries t =
  while t.stats.instructions >= t.boundary_at do
    t.boundary_at <- t.boundary_at + t.boundary_every;
    t.on_boundary ()
  done

(* A plain run under the retire boundary: whole when it ends before the
   next boundary, otherwise in pieces that end exactly on each boundary it
   crosses, with the callback between them. Each piece is aggregate-exact
   on its own and the callback runs between the same two instructions as
   on a one-cell-per-instruction tape, so the split changes nothing
   observable. Every boundary reached so far has been crossed (see
   {!consume_tape}), so [room >= 1]. *)
let rec consume_plain_run_bounded t ~pc ~dispatch ~count ~stride =
  let room = t.boundary_at - t.stats.instructions in
  if count < room then consume_plain_run t ~pc ~dispatch ~count ~stride
  else begin
    consume_plain_run t ~pc ~dispatch ~count:room ~stride;
    cross_boundaries t;
    if count > room then
      consume_plain_run_bounded t ~pc:(pc + (room * stride)) ~dispatch
        ~count:(count - room) ~stride
  end

(* Walk the backing buffer directly: the tape only grows on the producer
   side, so the reference stays valid for the whole drain. The tag is
   decoded once per cell. Runs and memory cells, the two commonest kinds,
   are handled here, so a memory cell skips {!consume_cell}'s chain of
   tag tests; every other tag goes through {!consume_cell}. A boundary is crossed right after the cell
   that reaches it, and [set_retire_boundary] arms it strictly ahead of
   the count, so between cells the count is always below [boundary_at].
   With no boundary armed [boundary_at] is [max_int], so the boundary
   checks never fire. *)
let consume_tape t tape =
  let words = Event.tape_extent tape in
  let buf = Event.tape_words tape in
  let s = t.stats in
  let i = ref 0 in
  while !i < words do
    let base = !i in
    let pc = buf.(base) and flags = buf.(base + 1) in
    let tag = flags land 0xF in
    if tag = Event.tag_plain_run then
      consume_plain_run_bounded t ~pc
        ~dispatch:(flags land Event.flag_dispatch <> 0)
        ~count:buf.(base + 2) ~stride:buf.(base + 3)
    else begin
      if tag = Event.tag_mem_read || tag = Event.tag_mem_write then begin
        s.instructions <- s.instructions + 1;
        if flags land Event.flag_dispatch <> 0 then
          s.dispatch_instructions <- s.dispatch_instructions + 1;
        if flags land Event.flag_sets_rop <> 0 then
          t.last_rop_index <- s.instructions;
        fetch t pc;
        issue t ~mem:true ~control:false;
        data_access t buf.(base + 2);
        if t.probe != Scd_obs.Probe.null then
          t.probe.Scd_obs.Probe.on_retire ()
      end
      else
        consume_cell t ~pc ~flags ~tag ~arg1:buf.(base + 2)
          ~arg2:buf.(base + 3);
      if s.instructions >= t.boundary_at then cross_boundaries t
    end;
    i := base + Event.cell_words
  done
