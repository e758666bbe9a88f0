(** Shared, cached co-simulation runs.

    Figures 7-10 all read different statistics from the *same* runs, and the
    sensitivity studies reuse baselines across sweep points, so results are
    memoised per configuration ({!key}) within a process — and, when a
    {!Store} is attached, across processes: lookups go memory, then disk,
    then compute, and every computed cell is persisted, so a warm process
    recomputes nothing.

    The in-memory table is guarded by a mutex so that pool domains (see
    {!Scd_util.Pool}) can share it. Every cached value is a deterministic
    function of its key, so two domains racing to compute the same key
    merely duplicate work; whichever insert lands last wins with an
    identical value.

    An experiment declares each cell once, as one row of cells per
    workload, through {!rows} (or the {!table} and {!speedup_table}
    builders on top of it): the whole workload-by-configuration cell list
    is computed concurrently on the pool, and the sequential
    table-rendering code then reads the cells back from the cache in its
    original order — rendered tables are byte-identical to a sequential
    run at any [--jobs]. *)

open Scd_util
open Scd_cosim
open Scd_uarch

let cache : (string, Driver.result) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Persistent layer                                                    *)
(* ------------------------------------------------------------------ *)

let store : Store.t option ref = ref None

let set_store s = store := s

let find_memory key =
  Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key)

let insert_memory key r =
  Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key r)

(* Memory first, then disk; a disk hit is promoted into memory so the
   store's hit/miss counters see each key at most once per process.

   The lookup is a Prof leaf probe whose label depends on the outcome
   (sweep-hit-memory / sweep-hit-disk): under `scdsim prof` the span
   calls-vs-sweep-compute ratio gives the cache hit rate, and each tier's
   latency histogram gives cell-lookup percentiles. A full miss abandons
   the leaf — the compute that follows is measured by its own span. *)
let find_cached key =
  let lf = Scd_obs.Prof.leaf_begin () in
  match find_memory key with
  | Some _ as hit ->
    Scd_obs.Prof.leaf_end lf "sweep-hit-memory";
    hit
  | None -> (
    match !store with
    | None -> None
    | Some s -> (
      match Store.load s ~key with
      | Some r ->
        insert_memory key r;
        Scd_obs.Prof.leaf_end lf "sweep-hit-disk";
        Some r
      | None -> None))

let insert key r =
  insert_memory key r;
  match !store with None -> () | Some s -> Store.save s ~key r

let clear () = Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache)

(* ------------------------------------------------------------------ *)
(* Parallel prefetch                                                   *)
(* ------------------------------------------------------------------ *)

let pool : Scd_util.Pool.t option ref = ref None

let set_pool p = pool := p

(* ------------------------------------------------------------------ *)
(* Time-series sampling behind any figure (scdsim exp --sample DIR)    *)
(* ------------------------------------------------------------------ *)

let sample_dir : string option ref = ref None
let sample_interval = ref 10_000

(** When set, every co-simulated cell runs with a {!Driver.Telemetry}
    attached and dumps its interval time series as [DIR/<cell-key>.csv].
    Pool domains write distinct files (distinct keys); two domains racing on
    the same key write identical bytes. *)
let set_sample_dir ?(interval = 10_000) dir =
  if interval <= 0 then invalid_arg "Sweep.set_sample_dir: interval must be positive";
  sample_dir := dir;
  sample_interval := interval

(* Distinct keys must land in distinct files even though sanitisation is
   lossy, so the filename carries a hash of the raw key (Store.mangle). *)
let sanitize_key = Store.mangle

(* Every cell computes through here, so --sample covers them all. The
   sweep-compute span wraps the whole cell (driver phases nest under it);
   its calls count against the hit leaves above for the cache hit rate,
   and its latency histogram is the cell-latency distribution. *)
let run_driver ~key (config : Driver.run_config) w scale =
  let source = Scd_workloads.Workload.source w scale in
  Scd_obs.Prof.span "sweep-compute" @@ fun () ->
  match !sample_dir with
  | None -> Driver.run config ~source
  | Some dir ->
    let telemetry = Telemetry.create ~interval:!sample_interval () in
    let r = Driver.run ~telemetry config ~source in
    let path = Filename.concat dir (sanitize_key key ^ ".csv") in
    let oc = open_out path in
    output_string oc (Telemetry.to_csv telemetry);
    close_out oc;
    r

(* ------------------------------------------------------------------ *)
(* Cell keys                                                           *)
(* ------------------------------------------------------------------ *)

(* 64-bit FNV-1a over a prefix-free byte encoding, each int as unsigned
   LEB128 (seven bits a byte, low first, the top bit set on all but the
   last). The state lives in [st]'s eight bytes, so a fold allocates nothing. *)
let[@inline] fnv h b = Int64.(mul (logxor h (of_int (b land 0xff))) 0x100000001b3L)

let fold_int st v =
  let h = ref (Bytes.get_int64_le st 0) and v = ref v in
  while !v lsr 7 <> 0 do
    h := fnv !h (!v lor 0x80);
    v := !v lsr 7
  done;
  Bytes.set_int64_le st 0 (fnv !h !v)

(* A variant folds its constructor's index, then its arguments. *)
let fold_option fold st = function
  | None -> fold_int st 0
  | Some v -> fold_int st 1; fold st v

let fold_geometry st { Cache.size_bytes; ways; block_bytes } =
  fold_int st size_bytes; fold_int st ways; fold_int st block_bytes

let fold_direction st (d : Direction.kind) =
  let f = fold_int st in
  match d with
  | Static_taken -> f 0
  | Bimodal { entries } -> f 1; f entries
  | Gshare { entries; history_bits } -> f 2; f entries; f history_bits
  | Local { history_entries; pattern_entries } ->
    f 3; f history_entries; f pattern_entries
  | Tournament
      { global_entries; local_history_entries; local_pattern_entries; chooser_entries } ->
    f 4; f global_entries; f local_history_entries; f local_pattern_entries;
    f chooser_entries

let fold_indirect st (i : Indirect.scheme) =
  let f = fold_int st in
  match i with
  | Pc_btb -> f 0
  | Vbbi -> f 1
  | Ttc { entries } -> f 2; f entries
  | Ittage { table_entries; tables } -> f 3; f table_entries; f tables

(* Every field of [config] but the frontend and scheme, which the key spells
   out, and the machine's [name], which configures nothing. The patterns list
   every field, and warning 9 is an error here: a new field must be folded. *)
let digest (config : Driver.run_config) =
  let { Driver.frontend = _; scheme = _; machine; context_switch_interval; multi_table;
        indirect_override; superinstructions; bytecode_replication; seed } = config in
  let { Config.name = _; issue_width; branch_penalty; direct_bubble; bop_hit_bubble;
        rop_gap; bop_policy; direction; btb_entries; btb_ways; btb_replacement; jte_cap;
        ras_depth; icache; dcache; l2; itlb_entries; dtlb_entries; tlb_penalty;
        l2_latency; mem_latency } = machine in
  let st = Bytes.create 8 in
  Bytes.set_int64_le st 0 0xcbf29ce484222325L;
  let f = fold_int st in
  f issue_width; f branch_penalty; f direct_bubble; f bop_hit_bubble; f rop_gap;
  f (match bop_policy with `Stall -> 0 | `Fall_through -> 1);
  fold_direction st direction; f btb_entries; f btb_ways;
  f (match (btb_replacement : Btb.replacement) with Round_robin -> 0 | Lru -> 1);
  fold_option fold_int st jte_cap; f ras_depth;
  fold_geometry st icache; fold_geometry st dcache; fold_option fold_geometry st l2;
  f itlb_entries; f dtlb_entries; f tlb_penalty; f l2_latency; f mem_latency;
  fold_option fold_int st context_switch_interval; f (Bool.to_int multi_table);
  fold_option fold_indirect st indirect_override;
  f (Bool.to_int superinstructions); f (Bool.to_int bytecode_replication);
  (* all 64 bits, as the low and the high 32 *)
  f (Int64.to_int seed land 0xffff_ffff);
  f (Int64.to_int (Int64.shift_right_logical seed 32));
  Bytes.get_int64_le st 0

(** The key of the cell that co-simulates [w] at [scale] under [config],
    [frontend|scheme|workload|scale|digest]: the only cell-key builder. *)
let key ~scale (config : Driver.run_config) (w : Scd_workloads.Workload.t) =
  let d = digest config in
  let hex i =
    "0123456789abcdef".[Int64.(to_int (shift_right_logical d (60 - (4 * i)))) land 15]
  in
  String.concat "|"
    [ Frontend.name config.frontend; Scd_core.Scheme.name config.scheme; w.name;
      Scd_workloads.Workload.scale_name scale; String.init 16 hex ]

(** One (workload, configuration) point of a sweep: a cache key plus the
    closure that computes it. Construction is cheap; nothing runs until
    {!prefetch} (pool fan-out) or a cache miss in {!get}. *)
type cell = { key : string; compute : unit -> Driver.result }

(** The cell that co-simulates [w] at [scale] (default [Sim]) under [config]. *)
let of_config ?(scale = Scd_workloads.Workload.Sim) config w =
  let key = key ~scale config w in
  { key; compute = (fun () -> run_driver ~key config w scale) }

(** {!of_config} on the default driver options; [frontend] is a registry
    name ("lua", "js", ...). *)
let cell ?(machine = Config.simulator) ?scale frontend scheme w =
  of_config ?scale
    { Driver.default_config with frontend = Frontend.get frontend; scheme; machine } w

(** Only for the benchmark harness ([perfbench/cells.ml]) until its next
    change: [std_key] is the key of the matching {!cell}, so the experiments
    read the cells it stores back; [custom_key] keys its abl-cs cells. *)
let std_key ~machine ~scale frontend scheme w =
  (cell ~machine ~scale frontend scheme w).key

let custom_key ~tag (w : Scd_workloads.Workload.t) scale =
  Printf.sprintf "custom|%s|%s|%s" tag w.name
    (Scd_workloads.Workload.scale_name scale)

(** Compute every not-yet-cached cell on the active pool (deduplicated by
    key) and populate the cache. A no-op without a pool or at [--jobs 1],
    leaving the exact legacy lazily-computed sequential path. Each task
    builds its own pipeline/BTB/VM state inside [Driver.run]; no mutable
    state is shared between cells. The cached-cell filter consults the
    persistent store too, so a warm process fans out nothing. *)
let prefetch cells =
  match !pool with
  | None -> ()
  | Some p when Scd_util.Pool.jobs p <= 1 -> ()
  | Some p ->
    let seen = Hashtbl.create 16 in
    let todo =
      List.filter
        (fun c ->
          if Hashtbl.mem seen c.key || find_cached c.key <> None then false
          else begin
            Hashtbl.add seen c.key ();
            true
          end)
        cells
    in
    ignore
      (Scd_util.Pool.map p (fun c -> insert c.key (c.compute ())) todo
        : unit list)

(* ------------------------------------------------------------------ *)
(* Cached lookups                                                      *)
(* ------------------------------------------------------------------ *)

(** The result of [c]: from memory, else from the store, else computed
    here and cached. *)
let get c =
  match find_cached c.key with
  | Some r -> r
  | None ->
    let r = c.compute () in
    insert c.key r;
    r

let workloads = Scd_workloads.Registry.all

let scale_for ~quick default = if quick then Scd_workloads.Workload.Test else default

(** [rows cells] declares one row of cells per workload ([cells w]),
    computes the missing ones (on the pool, see {!prefetch}) and reads
    them back: each workload with its row's results, in registry order. *)
let rows cells =
  let declared = List.map (fun w -> (w, cells w)) workloads in
  prefetch (List.concat_map snd declared);
  List.map (fun (w, cs) -> (w, Array.of_list (List.map get cs))) declared

(** Cycle ratio of [r] over [baseline]: above 1 when [r] is faster. *)
let speedup_ratio ~baseline r =
  float_of_int (Driver.cycles baseline) /. float_of_int (Driver.cycles r)

(** Dynamic instruction count of [a] over that of [b]. *)
let instr_ratio a b =
  float_of_int (Driver.instructions a) /. float_of_int (Driver.instructions b)

(* ------------------------------------------------------------------ *)
(* Per-workload tables                                                 *)
(* ------------------------------------------------------------------ *)

(** How a column's per-workload values render, and how they fold into the
    summary row. *)
type kind =
  | Speedup  (** A {!speedup_ratio}, shown as a percent speedup. *)
  | Reduction  (** A ratio [baseline/cell], shown as the percent saved. *)
  | Ratio  (** A ratio, shown to three places. *)
  | Mean  (** A value shown to two places; the summary is their mean. *)
  | Shown of (float -> string)  (** Shown per workload only. *)

type column = {
  header : string;
  kind : kind;
  value : Driver.result array -> float;  (** From one row's results. *)
}

(** [ratio] as a percent speedup. *)
let speedup_percent ratio = (ratio -. 1.0) *. 100.0

let render kind v =
  match kind with
  | Speedup -> Table.cell_percent (speedup_percent v)
  | Reduction -> Table.cell_percent ((1.0 -. (1.0 /. v)) *. 100.0)
  | Ratio -> Printf.sprintf "%.3f" v
  | Mean -> Table.cell_float v
  | Shown show -> show v

(** The summary cell of a column of [values]: every ratio kind folds by
    geometric mean. [Summary.geomean] sums logs, so the order of [values]
    reaches the last bit. *)
let summary kind values =
  match kind with
  | Speedup | Reduction | Ratio -> render kind (Summary.geomean values)
  | Mean -> render kind (Summary.mean values)
  | Shown _ -> ""

(** A {!Speedup} column: the row's cell [i] over its cell 0, the
    baseline. *)
let speedup_column header i =
  { header; kind = Speedup;
    value = (fun r -> speedup_ratio ~baseline:r.(0) r.(i)) }

(** A table with one row per workload, each cell of it the [value] of a
    column over the workload's row of [cells] (see {!rows}), then a
    separator and the summary row. The summary is labelled MEAN when a
    column folds by arithmetic mean, GEOMEAN otherwise, and folds each
    column's values in reverse registry order. *)
let table ~title cells columns =
  let rows = rows cells in
  let t =
    Table.make ~title
      ~headers:("benchmark" :: List.map (fun c -> c.header) columns)
  in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), r) ->
      Table.add_row t (w.name :: List.map (fun c -> render c.kind (c.value r)) columns))
    rows;
  Table.add_separator t;
  let label =
    if List.exists (fun c -> match c.kind with Mean -> true | _ -> false) columns
    then "MEAN"
    else "GEOMEAN"
  in
  Table.add_row t
    (label
    :: List.map (fun c -> summary c.kind (List.rev_map (fun (_, r) -> c.value r) rows))
         columns);
  t

(** A table of {!Speedup} columns, each a [(header, pair)] where [pair w]
    is the (baseline, cell) the column compares on workload [w]. *)
let speedup_table ~title columns =
  table ~title
    (fun w ->
      List.concat_map
        (fun (_, pair) ->
          let baseline, cell = pair w in
          [ baseline; cell ])
        columns)
    (List.mapi
       (fun i (header, _) ->
         { header; kind = Speedup;
           value = (fun r -> speedup_ratio ~baseline:r.(2 * i) r.((2 * i) + 1)) })
       columns)
