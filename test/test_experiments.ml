(* Quick-mode smoke tests: every experiment must produce non-empty tables
   whose rows all match their header's arity. Structure checks on the
   central figures (row counts, parseable cells) and the persistent cache
   follow. These run at Test scale; every table's bytes are pinned by the
   test/golden rules, and the full-scale numbers are exercised by the bench
   harness. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let workload_count = List.length Scd_workloads.Registry.all

let rows_of table = Scd_util.Table.rows table

let expect_benchmark_rows table =
  (* data rows = 11 benchmarks + 1 summary *)
  check_int
    ("row count of " ^ Scd_util.Table.title table)
    (workload_count + 1)
    (List.length (rows_of table))

let percent_cell_parses cell =
  String.length cell > 1
  && Char.equal cell.[String.length cell - 1] '%'
  && Option.is_some (float_of_string_opt (String.sub cell 0 (String.length cell - 1)))

(* Each experiment prefetches its cells on a two-job pool, the path of
   [scdsim exp --jobs 2]; the goldens pin the single-job path. *)
let run_pooled (e : Scd_experiments.Experiment.t) =
  Scd_util.Pool.with_pool ~jobs:2 (fun pool ->
      Scd_experiments.Sweep.set_pool (Some pool);
      Fun.protect
        ~finally:(fun () -> Scd_experiments.Sweep.set_pool None)
        (fun () -> e.run ~quick:true))

let smoke_case (e : Scd_experiments.Experiment.t) =
  Alcotest.test_case e.id `Slow (fun () ->
      let tables = run_pooled e in
      check_bool (e.id ^ " produces tables") true (tables <> []);
      List.iter
        (fun t ->
          check_bool "has headers" true (List.length (Scd_util.Table.headers t) >= 2);
          check_bool "has rows" true (rows_of t <> []);
          List.iter
            (fun row ->
              check_int "row arity"
                (List.length (Scd_util.Table.headers t))
                (List.length row))
            (rows_of t))
        tables)

(* A speedup table declares a baseline cell once per column, so fig7 names
   each baseline three times; the sweep must still co-simulate every
   distinct cell exactly once, sequentially and on a pool: 2 interpreters
   x 4 schemes x 11 workloads = 88 runs. *)
let test_fig7_cold_runs ~jobs () =
  Scd_experiments.Sweep.clear ();
  let runs0 = Scd_cosim.Driver.runs () in
  Scd_util.Pool.with_pool ~jobs (fun pool ->
      ignore
        (Scd_experiments.Runner.run_all ~pool ~quick:true ~csv:false
           [ Scd_experiments.Fig7.experiment ]
          : Scd_experiments.Runner.rendered list));
  check_int "cells co-simulated" 88 (Scd_cosim.Driver.runs () - runs0)

(* abl-cs declares its baselines and its never-flush column on fig7's
   Lua configurations, so after a cold fig7 only its three flushing
   columns are co-simulated: 3 intervals x 11 workloads = 33 runs. *)
let test_abl_cs_after_fig7_runs () =
  Scd_experiments.Sweep.clear ();
  Scd_util.Pool.with_pool ~jobs:1 (fun pool ->
      let run e =
        ignore
          (Scd_experiments.Runner.run_all ~pool ~quick:true ~csv:false [ e ]
            : Scd_experiments.Runner.rendered list)
      in
      run Scd_experiments.Fig7.experiment;
      let runs0 = Scd_cosim.Driver.runs () in
      run Scd_experiments.Ablations.context_switch_experiment;
      check_int "abl-cs cells co-simulated" 33 (Scd_cosim.Driver.runs () - runs0))

(* Deeper checks on the structure of the central figures. *)

let test_fig7_shape () =
  match Scd_experiments.Fig7.run ~quick:true with
  | [ lua; js ] ->
    expect_benchmark_rows lua;
    expect_benchmark_rows js;
    Alcotest.(check (list string))
      "columns"
      [ "benchmark"; "jump-threading"; "vbbi"; "scd" ]
      (Scd_util.Table.headers lua);
    (* every speedup cell parses as a percentage *)
    List.iter
      (fun row ->
        List.iteri
          (fun i cell -> if i > 0 then check_bool "percent" true (percent_cell_parses cell))
          row)
      (rows_of js)
  | _ -> Alcotest.fail "fig7 must produce two tables"

let test_fig7_scd_wins_geomean () =
  match Scd_experiments.Fig7.run ~quick:true with
  | [ lua; _ ] ->
    let geomean_row = List.nth (rows_of lua) workload_count in
    (match geomean_row with
     | [ label; _jt; vbbi; scd ] ->
       Alcotest.(check string) "label" "GEOMEAN" label;
       let pct s = float_of_string (String.sub s 0 (String.length s - 1)) in
       check_bool "SCD beats VBBI on Lua (the paper's headline)" true
         (pct scd > pct vbbi);
       check_bool "SCD geomean positive" true (pct scd > 5.0)
     | _ -> Alcotest.fail "geomean row shape")
  | _ -> Alcotest.fail "fig7 must produce two tables"

let test_tab5_summary_values () =
  match Scd_experiments.Tab5.run ~quick:true with
  | [ breakdown; summary ] ->
    check_int "Table V rows" 15 (List.length (rows_of breakdown));
    check_bool "summary has EDP row" true
      (List.exists (fun row -> List.hd row = "EDP improvement") (rows_of summary))
  | _ -> Alcotest.fail "tab5 must produce two tables"

(* ------------------------------------------------------------------ *)
(* Persistent cache                                                    *)
(* ------------------------------------------------------------------ *)

let with_temp_store f =
  let dir = Filename.temp_file "scd_cache_test" "" in
  Sys.remove dir;
  let store = Scd_experiments.Store.create dir in
  Fun.protect
    ~finally:(fun () ->
      Scd_experiments.Sweep.set_store None;
      ignore (Scd_experiments.Store.clear store : int);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f store)

let tiny_source = "print(1 + 2)"

let test_store_save_load_distinct_keys () =
  with_temp_store (fun store ->
      let r = Scd_cosim.Driver.run Scd_cosim.Driver.default_config ~source:tiny_source in
      (* sanitisation folds both keys to "a-b": the hash must keep them apart *)
      Scd_experiments.Store.save store ~key:"a|b" r;
      check_bool "a/b not visible under a|b" true
        (Scd_experiments.Store.load store ~key:"a/b" = None);
      let r2 =
        Scd_cosim.Driver.run
          { Scd_cosim.Driver.default_config with scheme = Scd_core.Scheme.Scd }
          ~source:tiny_source
      in
      Scd_experiments.Store.save store ~key:"a/b" r2;
      check_int "two files for two keys" 2
        (List.length (Scd_experiments.Store.entries store));
      (match Scd_experiments.Store.load store ~key:"a|b" with
       | Some r' -> check_bool "a|b round-trips" true (Scd_cosim.Result.equal r r')
       | None -> Alcotest.fail "a|b entry lost");
      match Scd_experiments.Store.load store ~key:"a/b" with
      | Some r' -> check_bool "a/b round-trips" true (Scd_cosim.Result.equal r2 r')
      | None -> Alcotest.fail "a/b entry lost")

let test_sanitize_key_collision_free () =
  check_bool "hash suffix separates sanitised twins" true
    (Scd_experiments.Sweep.sanitize_key "a|b"
     <> Scd_experiments.Sweep.sanitize_key "a/b")

let test_store_corrupt_entry_recomputed () =
  with_temp_store (fun store ->
      let r = Scd_cosim.Driver.run Scd_cosim.Driver.default_config ~source:tiny_source in
      Scd_experiments.Store.save store ~key:"k" r;
      (* clobber the payload: load must treat it as a miss and quarantine it *)
      let file =
        Filename.concat (Scd_experiments.Store.dir store)
          (List.hd (Scd_experiments.Store.entries store))
      in
      let oc = open_out file in
      output_string oc "scd-result 999\ngarbage\n";
      close_out oc;
      let ok, bad = Scd_experiments.Store.verify store in
      check_int "verify sees no clean entries" 0 ok;
      check_int "verify flags the corrupt one" 1 (List.length bad);
      check_bool "corrupt entry is a miss" true
        (Scd_experiments.Store.load store ~key:"k" = None);
      check_int "corrupt load counted" 1 (Scd_experiments.Store.corrupt store);
      check_int "corrupt load is also a miss" 1 (Scd_experiments.Store.misses store);
      check_int "file quarantined away from the live set" 0
        (List.length (Scd_experiments.Store.entries store));
      check_int "quarantine file kept as evidence" 1
        (List.length (Scd_experiments.Store.quarantined store));
      (* the next save repopulates the cell and warm loads hit again *)
      Scd_experiments.Store.save store ~key:"k" r;
      (match Scd_experiments.Store.load store ~key:"k" with
       | Some r' -> check_bool "re-saved cell round-trips" true (Scd_cosim.Result.equal r r')
       | None -> Alcotest.fail "re-saved cell lost");
      check_int "clear removes quarantined files too" 1
        (Scd_experiments.Store.clear store);
      check_int "no quarantine leftovers" 0
        (List.length (Scd_experiments.Store.quarantined store)))

(* The acceptance test for the cache layer: a warm process (simulated by
   dropping the in-memory layer but keeping the store) renders byte-identical
   tables without issuing a single co-simulation. *)
let test_store_cold_then_warm_zero_runs () =
  with_temp_store (fun store ->
      Scd_experiments.Sweep.set_store (Some store);
      let render () =
        Scd_experiments.Sweep.clear ();
        Scd_experiments.Fig7.run ~quick:true
        |> List.map Scd_util.Table.render
        |> String.concat "\n"
      in
      let cold = render () in
      check_bool "cold run persisted entries" true
        (Scd_experiments.Store.entries store <> []);
      let runs_after_cold = Scd_cosim.Driver.runs () in
      let warm = render () in
      check_int "warm run issues zero co-simulations" runs_after_cold
        (Scd_cosim.Driver.runs ());
      Alcotest.(check string) "tables byte-identical" cold warm;
      let ok, bad = Scd_experiments.Store.verify store in
      check_bool "store entries decode" true (ok > 0);
      check_int "no corrupt entries" 0 (List.length bad))

(* ------------------------------------------------------------------ *)
(* Cell keys                                                           *)
(* ------------------------------------------------------------------ *)

module Sweep = Scd_experiments.Sweep
module Config = Scd_uarch.Config
module Driver = Scd_cosim.Driver

let test_scale = Scd_workloads.Workload.Test
let fibo = Scd_workloads.Fibo.workload
let key_of config = (Sweep.of_config ~scale:test_scale config fibo).key

(* Equal configurations built differently name one cell. *)
let test_equal_configs_share_key () =
  let check_key = Alcotest.(check string) in
  List.iter
    (fun vm ->
      List.iter
        (fun scheme ->
          let key = (Sweep.cell ~scale:test_scale vm scheme fibo).key in
          check_key "a BTB resized to its own size" key
            (Sweep.cell ~machine:(Config.with_btb_entries Config.simulator 256)
               ~scale:test_scale vm scheme fibo)
              .key;
          check_key "Sweep.cell and Sweep.of_config" key
            (key_of
               { Driver.default_config with
                 frontend = Scd_cosim.Frontend.get vm; scheme });
          check_key "the benchmark's std_key" key
            (Sweep.std_key ~machine:Config.simulator ~scale:test_scale vm scheme
               fibo))
        Scd_core.Scheme.all)
    [ "lua"; "js" ]

(* Every copy of [c] that differs from it in one field of the run
   configuration or of its machine: each constructor of a variant field
   and each field of a nested record or constructor. The record patterns
   list every field, so a new one does not compile until it has mutants
   here. *)
let mutants (c : Driver.run_config) =
  let { Driver.frontend; scheme; machine = m; context_switch_interval;
        multi_table; indirect_override; superinstructions;
        bytecode_replication; seed } =
    c
  in
  let { Config.name = _; issue_width; branch_penalty; direct_bubble;
        bop_hit_bubble; rop_gap; bop_policy; direction; btb_entries;
        btb_ways; btb_replacement; jte_cap; ras_depth; icache; dcache; l2;
        itlb_entries; dtlb_entries; tlb_penalty; l2_latency; mem_latency } =
    m
  in
  let int_option = function None -> [ Some 1 ] | Some n -> [ None; Some (n + 1) ] in
  let geometry ({ Scd_uarch.Cache.size_bytes; ways; block_bytes } as g) =
    [ { g with size_bytes = size_bytes + 1 }; { g with ways = ways + 1 };
      { g with block_bytes = block_bytes + 1 } ]
  in
  let directions : Scd_uarch.Direction.kind list =
    List.filter (( <> ) direction)
      [ Static_taken; Bimodal { entries = 1 };
        Gshare { entries = 1; history_bits = 1 };
        Local { history_entries = 1; pattern_entries = 1 };
        Tournament
          { global_entries = 1; local_history_entries = 1;
            local_pattern_entries = 1; chooser_entries = 1 } ]
    @
    match direction with
    | Static_taken -> []
    | Bimodal { entries } -> [ Bimodal { entries = entries + 1 } ]
    | Gshare ({ entries; history_bits } as d) ->
      [ Gshare { d with entries = entries + 1 };
        Gshare { d with history_bits = history_bits + 1 } ]
    | Local ({ history_entries; pattern_entries } as d) ->
      [ Local { d with history_entries = history_entries + 1 };
        Local { d with pattern_entries = pattern_entries + 1 } ]
    | Tournament
        ({ global_entries; local_history_entries; local_pattern_entries;
           chooser_entries } as d) ->
      [ Tournament { d with global_entries = global_entries + 1 };
        Tournament { d with local_history_entries = local_history_entries + 1 };
        Tournament { d with local_pattern_entries = local_pattern_entries + 1 };
        Tournament { d with chooser_entries = chooser_entries + 1 } ]
  in
  let indirects : Scd_uarch.Indirect.scheme option list =
    List.filter (( <> ) indirect_override)
      [ None; Some Pc_btb; Some Vbbi; Some (Ttc { entries = 1 });
        Some (Ittage { table_entries = 1; tables = 1 }) ]
    @
    match indirect_override with
    | None | Some (Pc_btb | Vbbi) -> []
    | Some (Ttc { entries }) -> [ Some (Ttc { entries = entries + 1 }) ]
    | Some (Ittage ({ table_entries; tables } as i)) ->
      [ Some (Ittage { i with table_entries = table_entries + 1 });
        Some (Ittage { i with tables = tables + 1 }) ]
  in
  let machines =
    [ { m with issue_width = issue_width + 1 };
      { m with branch_penalty = branch_penalty + 1 };
      { m with direct_bubble = direct_bubble + 1 };
      { m with bop_hit_bubble = bop_hit_bubble + 1 };
      { m with rop_gap = rop_gap + 1 };
      { m with
        bop_policy =
          (match bop_policy with `Stall -> `Fall_through | `Fall_through -> `Stall) };
      { m with btb_entries = btb_entries + 1 };
      { m with btb_ways = btb_ways + 1 };
      { m with
        btb_replacement =
          (match btb_replacement with Round_robin -> Lru | Lru -> Round_robin) };
      { m with ras_depth = ras_depth + 1 };
      { m with itlb_entries = itlb_entries + 1 };
      { m with dtlb_entries = dtlb_entries + 1 };
      { m with tlb_penalty = tlb_penalty + 1 };
      { m with l2_latency = l2_latency + 1 };
      { m with mem_latency = mem_latency + 1 } ]
    @ List.map (fun direction -> { m with direction }) directions
    @ List.map (fun jte_cap -> { m with jte_cap }) (int_option jte_cap)
    @ List.map (fun icache -> { m with icache }) (geometry icache)
    @ List.map (fun dcache -> { m with dcache }) (geometry dcache)
    @ List.map
        (fun l2 -> { m with l2 })
        (match l2 with
         | None -> [ Some icache ]
         | Some g -> None :: List.map Option.some (geometry g))
  in
  List.map
    (fun vm -> { c with frontend = Scd_cosim.Frontend.get vm })
    (List.filter (( <> ) (Scd_cosim.Frontend.name frontend)) [ "lua"; "js" ])
  @ List.map (fun scheme -> { c with scheme })
      (List.filter (( <> ) scheme) Scd_core.Scheme.all)
  @ List.map (fun machine -> { c with machine }) machines
  @ List.map
      (fun context_switch_interval -> { c with context_switch_interval })
      (int_option context_switch_interval)
  @ [ { c with multi_table = not multi_table };
      { c with superinstructions = not superinstructions };
      { c with bytecode_replication = not bytecode_replication } ]
  @ List.map (fun indirect_override -> { c with indirect_override }) indirects
  @ List.map
      (fun bit -> { c with seed = Int64.logxor seed (Int64.shift_left 1L bit) })
      [ 0; 31; 32; 63 ]

(* A random configuration: a paper machine and a random seed, then a walk
   of up to a dozen random one-field changes. *)
let arbitrary_run_config =
  let open QCheck.Gen in
  QCheck.make ~print:key_of
    (let* machine = oneofl [ Config.simulator; Config.fpga; Config.high_end ] in
     let* seed = ui64 in
     let+ steps = list_size (int_bound 12) nat in
     List.fold_left
       (fun c i ->
         let ms = mutants c in
         List.nth ms (i mod List.length ms))
       { Driver.default_config with machine; seed }
       steps)

let prop_one_field_moves_key =
  QCheck.Test.make ~name:"changing any one field changes the key" ~count:300
    arbitrary_run_config (fun c ->
      let key = key_of c in
      key_of { c with machine = { c.machine with name = "renamed" } } = key
      && List.for_all (fun c' -> key_of c' <> key) (mutants c))

let test_registry () =
  check_int "13 published + 7 ablation experiments" 20
    (List.length Scd_experiments.Registry.all);
  check_bool "find" true (Scd_experiments.Registry.find "fig7" <> None);
  check_bool "unknown" true (Scd_experiments.Registry.find "fig99" = None);
  (* ids are unique *)
  let ids = Scd_experiments.Registry.ids in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let () =
  Alcotest.run "scd_experiments"
    [
      ( "structure",
        [
          Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
          Alcotest.test_case "fig7 geomean" `Slow test_fig7_scd_wins_geomean;
          Alcotest.test_case "tab5 summary" `Slow test_tab5_summary_values;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "fig7 cold, 1 job: 88 runs" `Slow
            (test_fig7_cold_runs ~jobs:1);
          Alcotest.test_case "fig7 cold, 2 jobs: 88 runs" `Slow
            (test_fig7_cold_runs ~jobs:2);
          Alcotest.test_case "abl-cs after a cold fig7: 33 runs" `Slow
            test_abl_cs_after_fig7_runs;
        ] );
      ( "keys",
        [
          Alcotest.test_case "equal configurations share a key" `Quick
            test_equal_configs_share_key;
          QCheck_alcotest.to_alcotest prop_one_field_moves_key;
        ] );
      ( "cache",
        [
          Alcotest.test_case "distinct keys, distinct files" `Quick
            test_store_save_load_distinct_keys;
          Alcotest.test_case "sanitize_key collision-free" `Quick
            test_sanitize_key_collision_free;
          Alcotest.test_case "corrupt entry is a miss" `Quick
            test_store_corrupt_entry_recomputed;
          Alcotest.test_case "cold then warm: zero runs" `Slow
            test_store_cold_then_warm_zero_runs;
        ] );
      ("smoke", List.map smoke_case Scd_experiments.Registry.all);
    ]
