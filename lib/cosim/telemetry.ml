open Scd_uarch
open Scd_obs

(* Mispredicts separated by more than this many retired instructions belong
   to different bursts. *)
let burst_gap = 64

let columns =
  [
    "instructions"; "cycles";
    "d_instructions"; "d_cycles"; "d_dispatch_instructions";
    "d_mispredicts"; "d_dispatch_mispredicts";
    "d_bop_lookups"; "d_bop_hits";
    "d_icache_misses"; "d_dcache_misses";
    "d_jte_inserts"; "d_jte_evictions"; "d_jte_flushes";
    "bop_hit_rate"; "ipc"; "jte_population";
  ]

type t = {
  interval : int;
  series : Series.t;
  cycles_per_bytecode : Histogram.t;
  burst_lengths : Histogram.t;
  site_attr : Attribution.t;
  opcode_attr : Attribution.t;
  row : float array; (* scratch row reused by every sample *)
  mutable attached : bool;
  mutable finished : bool;
  mutable do_finish : unit -> unit; (* resolved by [attach] *)
}

let create ?(interval = 10_000) () =
  if interval <= 0 then invalid_arg "Telemetry.create: interval must be positive";
  {
    interval;
    series = Series.create ~columns;
    cycles_per_bytecode = Histogram.create ();
    burst_lengths = Histogram.create ();
    site_attr = Attribution.create ~size:3;
    (* the engine's opcode key space: 10 bits *)
    opcode_attr = Attribution.create ~size:1024;
    row = Array.make (List.length columns) 0.0;
    attached = false;
    finished = false;
    do_finish = ignore;
  }

let interval t = t.interval
let series t = t.series
let cycles_per_bytecode t = t.cycles_per_bytecode
let burst_lengths t = t.burst_lengths
let site_attr t = t.site_attr
let opcode_attr t = t.opcode_attr

let site_name = function
  | 0 -> "common"
  | 1 -> "call"
  | 2 -> "branch"
  | n -> Printf.sprintf "site%d" n

let note_bytecode t ~site ~opcode ~cycles ~instructions ~mispredicts =
  Attribution.add t.site_attr ~key:site ~cycles ~instructions ~mispredicts;
  if opcode >= 0 && opcode < Attribution.size t.opcode_attr then
    Attribution.add t.opcode_attr ~key:opcode ~cycles ~instructions ~mispredicts;
  Histogram.add t.cycles_per_bytecode cycles

let attach t ~pipeline ~engine =
  if t.attached then invalid_arg "Telemetry.attach: already attached to a run";
  t.attached <- true;
  let stats = Pipeline.stats pipeline in
  let bstats = Btb.stats (Pipeline.btb pipeline) in
  let estats = Scd_core.Engine.stats engine in
  let btb = Pipeline.btb pipeline in
  (* Previous-sample snapshots for delta columns. *)
  let prev = Stats.create () in
  let p_mispredicts = ref 0 in
  let p_jte_inserts = ref 0 in
  let p_jte_evictions = ref 0 in
  let p_flushes = ref 0 in
  let row = t.row in
  let sample () =
    let d_instructions = stats.instructions - prev.instructions in
    if d_instructions > 0 then begin
      let d_cycles = stats.cycles - prev.cycles in
      let mispredicts = Stats.total_mispredicts stats in
      let d_bop_lookups = stats.bop_count - prev.bop_count in
      let d_bop_hits = stats.bop_hits - prev.bop_hits in
      let flushes = estats.flushes in
      row.(0) <- float_of_int stats.instructions;
      row.(1) <- float_of_int stats.cycles;
      row.(2) <- float_of_int d_instructions;
      row.(3) <- float_of_int d_cycles;
      row.(4) <- float_of_int (stats.dispatch_instructions - prev.dispatch_instructions);
      row.(5) <- float_of_int (mispredicts - !p_mispredicts);
      row.(6) <- float_of_int (stats.mispredicts_dispatch - prev.mispredicts_dispatch);
      row.(7) <- float_of_int d_bop_lookups;
      row.(8) <- float_of_int d_bop_hits;
      row.(9) <- float_of_int (stats.icache_misses - prev.icache_misses);
      row.(10) <- float_of_int (stats.dcache_misses - prev.dcache_misses);
      row.(11) <- float_of_int (bstats.jte_inserts - !p_jte_inserts);
      row.(12) <- float_of_int (bstats.jte_evictions - !p_jte_evictions);
      row.(13) <- float_of_int (flushes - !p_flushes);
      row.(14) <-
        (if d_bop_lookups = 0 then 0.0
         else float_of_int d_bop_hits /. float_of_int d_bop_lookups);
      row.(15) <-
        (if d_cycles = 0 then 0.0
         else float_of_int d_instructions /. float_of_int d_cycles);
      row.(16) <- float_of_int (Btb.jte_population btb);
      Series.append t.series row;
      (* roll the snapshots forward *)
      prev.instructions <- stats.instructions;
      prev.cycles <- stats.cycles;
      prev.dispatch_instructions <- stats.dispatch_instructions;
      prev.mispredicts_dispatch <- stats.mispredicts_dispatch;
      prev.bop_count <- stats.bop_count;
      prev.bop_hits <- stats.bop_hits;
      prev.icache_misses <- stats.icache_misses;
      prev.dcache_misses <- stats.dcache_misses;
      p_mispredicts := mispredicts;
      p_jte_inserts := bstats.jte_inserts;
      p_jte_evictions := bstats.jte_evictions;
      p_flushes := flushes
    end
  in
  (* Burst tracking: closure state only, no per-event allocation. *)
  let last_mispredict = ref min_int in
  let burst = ref 0 in
  let on_mispredict ~dispatch:_ =
    let now = stats.instructions in
    if !burst > 0 && now - !last_mispredict <= burst_gap then incr burst
    else begin
      if !burst > 0 then Histogram.add t.burst_lengths !burst;
      burst := 1
    end;
    last_mispredict := now
  in
  let since_sample = ref 0 in
  let on_retire () =
    incr since_sample;
    if !since_sample >= t.interval then begin
      since_sample := 0;
      sample ()
    end
  in
  t.do_finish <-
    (fun () ->
      if !burst > 0 then begin
        Histogram.add t.burst_lengths !burst;
        burst := 0
      end;
      sample ());
  Pipeline.set_probe pipeline (Probe.create ~on_retire ~on_mispredict ())

let finish t =
  if not t.finished then begin
    t.finished <- true;
    t.do_finish ()
  end

let to_csv t = Series.to_csv t.series

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let attribution_object ~name_of attr =
  Json.Object
    (List.map
       (fun (r : Attribution.row) ->
         ( name_of r.key,
           Json.Object
             [ ("events", Json.int r.events); ("cycles", Json.int r.cycles);
               ("instructions", Json.int r.instructions);
               ("mispredicts", Json.int r.mispredicts) ] ))
       (Attribution.rows attr))

let histogram_object h =
  Json.Object
    [ ("count", Json.int (Histogram.count h));
      ("total", Json.int (Histogram.total h));
      ("mean", Json.Number (Histogram.mean h));
      ("min", Json.int (Histogram.min_value h));
      ("max", Json.int (Histogram.max_value h));
      ("p50", Json.int (Histogram.quantile h 0.5));
      ("p99", Json.int (Histogram.quantile h 0.99));
      ( "buckets",
        Json.Array
          (List.map
             (fun (lo, hi, count) ->
               Json.Object
                 [ ("lo", Json.int (max lo 0)); ("hi", Json.int hi);
                   ("count", Json.int count) ])
             (Histogram.rows h)) ) ]

let to_chrome_trace ?(process_name = "scdsim") t =
  let tr = Chrome_trace.create ~process_name () in
  let s = t.series in
  let col name =
    match Series.col_index s name with
    | Some i -> i
    | None -> assert false (* [columns] is the schema *)
  in
  let cycles_c = col "cycles" in
  let get row name = Series.get s ~row ~col:(col name) in
  for row = 0 to Series.length s - 1 do
    let ts = int_of_float (Series.get s ~row ~col:cycles_c) in
    Chrome_trace.counter tr ~name:"ipc" ~ts [ ("ipc", get row "ipc") ];
    Chrome_trace.counter tr ~name:"bop" ~ts
      [ ("lookups", get row "d_bop_lookups"); ("hits", get row "d_bop_hits") ];
    Chrome_trace.counter tr ~name:"bop_hit_rate" ~ts
      [ ("rate", get row "bop_hit_rate") ];
    Chrome_trace.counter tr ~name:"mispredicts" ~ts
      [ ("total", get row "d_mispredicts");
        ("dispatch", get row "d_dispatch_mispredicts") ];
    Chrome_trace.counter tr ~name:"jte" ~ts
      [ ("population", get row "jte_population");
        ("inserts", get row "d_jte_inserts");
        ("evictions", get row "d_jte_evictions") ];
    Chrome_trace.counter tr ~name:"cache_misses" ~ts
      [ ("icache", get row "d_icache_misses");
        ("dcache", get row "d_dcache_misses") ];
    if get row "d_jte_flushes" > 0.0 then
      Chrome_trace.instant tr ~name:"jte_flush" ~ts
  done;
  let other key v = Chrome_trace.add_other_value tr ~key v in
  other "interval_instructions" (Json.int t.interval);
  other "samples" (Json.int (Series.length s));
  other "site_attribution" (attribution_object ~name_of:site_name t.site_attr);
  other "opcode_attribution"
    (attribution_object ~name_of:string_of_int t.opcode_attr);
  other "cycles_per_bytecode" (histogram_object t.cycles_per_bytecode);
  other "mispredict_burst_lengths" (histogram_object t.burst_lengths);
  Chrome_trace.contents tr
