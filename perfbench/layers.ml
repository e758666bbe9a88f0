(* Traced-run instrumentation: per-layer spans and counters recorded from
   the benchmark's side of each layer's public interface.

   Spans go through Scd_obs.Prof, which also carries the driver's own phase
   spans (setup/compile/layout/templates/execute/snapshot) and the sweep
   cache's hit leaves nested beneath them; everything stays in memory and
   is written as one Chrome trace when the run ends. The simulator's
   consume layer has no public boundary inside [Driver.run], so it is
   measured on a shadow: a second, independent pipeline and BTB fed every
   tape batch through [Driver.run]'s [tape_trap]. The shadow sees exactly
   the cells the real pipeline consumes, but not the SCD engine's JTE
   writes into the shared BTB, so its statistics (and hence its timing)
   match the run exactly only for non-SCD cells; [replay_exact] counts how
   often they match. *)

open Scd_cosim
module Prof = Scd_obs.Prof

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable cells : int;  (** Workload cells probed. *)
  mutable bytecodes : int;
  mutable shadow_ns : int;  (** Host time in the shadow pipeline's consume. *)
  mutable shadow_instructions : int;
  mutable tape_cells : int;
  mutable batches : int;
  mutable replay_exact : int;
  mutable non_scd : int;
  mutable non_scd_exact : int;
  mutable store_bytes : int;
  mutable calib : float list;  (** A {!Calib.sample} taken before each probe. *)
}

let create () =
  { cells = 0; bytecodes = 0; shadow_ns = 0; shadow_instructions = 0;
    tape_cells = 0; batches = 0; replay_exact = 0; non_scd = 0;
    non_scd_exact = 0; store_bytes = 0; calib = [] }

(* The shadow of [Driver.run]'s timing model: same machine, same indirect
   predictor, its own BTB. *)
let shadow_pipeline (config : Driver.run_config) =
  let m = config.machine in
  let btb =
    Scd_uarch.Btb.create ~entries:m.btb_entries ~ways:m.btb_ways
      ~replacement:m.btb_replacement ?jte_cap:m.jte_cap ()
  in
  let indirect =
    match config.indirect_override with
    | Some s -> s
    | None -> Scd_core.Scheme.indirect_scheme config.scheme
  in
  Scd_uarch.Pipeline.create ~btb ~indirect m

(* Called on every tape batch just before the real pipeline drains it. *)
let trap t shadow tape =
  let t0 = now_ns () in
  Scd_uarch.Pipeline.consume_tape shadow tape;
  t.shadow_ns <- t.shadow_ns + (now_ns () - t0);
  t.tape_cells <- t.tape_cells + Scd_isa.Event.tape_cells tape;
  t.batches <- t.batches + 1

(** Run one cell through every layer in turn, each call under its own span:
    compile, layout, the VM alone, the full co-simulation (with the shadow
    pipeline attached), then a store save and load. Returns the
    co-simulation result and whether the store round-trip reproduced it. *)
let probe t store (c : Cells.t) =
  t.calib <- Calib.sample () :: t.calib;
  let config = c.config in
  let (module F : Frontend.S) = config.frontend in
  let options = Frontend.default_options in
  let program =
    Prof.span "frontend.compile" (fun () -> F.compile options c.source)
  in
  let spec = F.spec options in
  ignore
    (Prof.span "codegen.layout" (fun () ->
         Scd_codegen.Layout.build ~spec ~scheme:config.scheme
           ~fn_code_sizes:(F.fn_code_sizes program)
           ~fn_const_counts:(F.fn_const_counts program))
      : Scd_codegen.Layout.t);
  Scd_runtime.Value.reset_table_ids ();
  let ctx = Scd_runtime.Builtins.create_ctx ~seed:config.seed () in
  Prof.span "vm.run" (fun () -> F.run program ~ctx ~trace:ignore);
  let shadow = shadow_pipeline config in
  let r =
    Prof.span "cosim.run" (fun () ->
        Driver.run ~tape_trap:(trap t shadow) config ~source:c.source)
  in
  Prof.span "experiments.store_save" (fun () ->
      Scd_experiments.Store.save store ~key:c.key r);
  let loaded =
    Prof.span "experiments.store_load" (fun () ->
        Scd_experiments.Store.load store ~key:c.key)
  in
  let file = Scd_experiments.Store.file_of_key store ~key:c.key in
  t.store_bytes <- t.store_bytes + (Unix.stat file).Unix.st_size;
  let shadow_stats = Scd_uarch.Pipeline.stats shadow in
  let exact = Scd_uarch.Stats.equal shadow_stats r.stats in
  t.cells <- t.cells + 1;
  t.bytecodes <- t.bytecodes + r.bytecodes;
  t.shadow_instructions <- t.shadow_instructions + shadow_stats.instructions;
  if exact then t.replay_exact <- t.replay_exact + 1;
  if config.scheme <> Scd_core.Scheme.Scd then begin
    t.non_scd <- t.non_scd + 1;
    if exact then t.non_scd_exact <- t.non_scd_exact + 1
  end;
  let round_trip =
    match loaded with Some r' -> Result.equal r r' | None -> false
  in
  (r, round_trip)

(** The per-layer metrics. [probe_root] is the span path the {!probe} calls
    ran under, [warmup] the path of set-up's first warm-up runs, [render]
    the path of the table-regeneration spans (one call per regeneration),
    [counts] the simulated totals of one pass, and [overhead] the
    traced/untraced pass-time ratio minus one. Host times are rescaled to
    the reference host (see {!Calib}): the probes' by [probe_speed], taken
    from their own calibration samples, the rest by the run's [speed]. Each
    metric is (name, unit, value). *)
let metrics t prof ~probe_root ~warmup ~render ~(counts : Counts.t)
    ~probe_speed ~speed ~overhead =
  let span path =
    match Prof.find prof path with
    | Some s -> s
    | None -> failwith ("missing trace span " ^ path)
  in
  let under name = span (probe_root ^ "/" ^ name) in
  let probe_ns n = float n *. probe_speed in
  let per_call (s : Prof.span) = probe_ns s.wall_ns /. float (max 1 s.calls) in
  let fbc = float (max 1 t.bytecodes) in
  let vm = under "vm.run" and cosim = under "cosim.run" in
  let vm_ns = probe_ns vm.wall_ns /. fbc in
  let uarch_ns = probe_ns t.shadow_ns /. fbc in
  let cosim_ns = probe_ns (cosim.wall_ns - t.shadow_ns) /. fbc in
  let templates = span (warmup ^ "/templates") in
  let render = span render in
  let disk_loads = Prof.find prof (render.path ^ "/sweep-hit-disk") in
  let render_loads = match disk_loads with Some s -> s.wall_ns | None -> 0 in
  let load_us =
    match disk_loads with
    | Some s -> float s.wall_ns *. speed /. float (max 1 s.calls) /. 1e3
    | None -> per_call (under "experiments.store_load") /. 1e3
  in
  let ratio a b = float a /. float (max 1 b) in
  let s = counts.stats in
  let per_kilo n = 1000.0 *. ratio n s.instructions in
  [
    ("frontend.compile_ms", "ms", per_call (under "frontend.compile") /. 1e6);
    ("vm.ns_per_bc", "ns/bc", vm_ns);
    ("vm.words_per_bc", "words/bc", vm.gc.minor_words /. fbc);
    ("codegen.layout_ms", "ms", per_call (under "codegen.layout") /. 1e6);
    ("codegen.templates_ms", "ms", float templates.wall_ns *. speed /. 1e6);
    ("codegen.template_builds", "count", float templates.calls);
    ("cosim.ns_per_bc", "ns/bc", cosim_ns);
    ("cosim.words_per_bc", "words/bc", cosim.gc.minor_words /. fbc);
    ("cosim.cells_per_bc", "cells/bc", float t.tape_cells /. fbc);
    ("cosim.batches_per_bc", "batches/bc", float t.batches /. fbc);
    ("cosim.expand_ns_per_bc", "ns/bc", cosim_ns -. vm_ns -. uarch_ns);
    ("uarch.ns_per_instr", "ns/instr",
     probe_ns t.shadow_ns /. float (max 1 t.shadow_instructions));
    ("uarch.ns_per_cell", "ns/cell",
     probe_ns t.shadow_ns /. float (max 1 t.tape_cells));
    ("uarch.replay_exact_frac", "frac", ratio t.replay_exact t.cells);
    ("core.bop_hit_rate", "frac", ratio counts.bop_hits counts.bop_lookups);
    ("core.jru_inserts", "count", float counts.jru_inserts);
    ("core.cs_flushes", "count", float counts.cs_flushes);
    ("experiments.store_save_us", "us",
     per_call (under "experiments.store_save") /. 1e3);
    ("experiments.store_load_us", "us", load_us);
    ("experiments.store_bytes_per_cell", "bytes",
     ratio t.store_bytes t.cells);
    ("experiments.render_ms", "ms",
     float (render.wall_ns - render_loads) *. speed
     /. float (max 1 render.calls) /. 1e6);
    ("sim.ipc", "instr/cycle", ratio s.instructions s.cycles);
    ("sim.dispatch_frac", "frac", ratio s.dispatch_instructions s.instructions);
    ("sim.branch_mpki", "miss/kinstr",
     per_kilo (Scd_uarch.Stats.total_mispredicts s));
    ("sim.icache_mpki", "miss/kinstr", per_kilo s.icache_misses);
    ("sim.dcache_mpki", "miss/kinstr", per_kilo s.dcache_misses);
    ("trace.overhead_frac", "frac", overhead);
  ]

(** The profile's span calls as a Chrome trace (timestamps in µs), with the
    per-layer metrics attached under ["otherData"]. *)
let chrome_trace prof ~metrics_json =
  let tr = Scd_obs.Chrome_trace.create ~process_name:"perfbench" () in
  Prof.iter_events prof (fun ev ->
      Scd_obs.Chrome_trace.complete tr ~name:ev.ev_path
        ~ts:(ev.ev_start_ns / 1000) ~dur:(ev.ev_dur_ns / 1000));
  Scd_obs.Chrome_trace.add_other tr ~key:"metrics" ~json:metrics_json;
  Scd_obs.Chrome_trace.contents tr
