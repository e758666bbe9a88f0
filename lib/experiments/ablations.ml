(** Ablation studies beyond the paper's published figures, each realising
    something the paper sketches but does not evaluate:

    - [multi_table]: the Section IV multi-jump-table extension applied to
      the stack VM's three dispatch sites — recovering the bop hit rate the
      shared Rbop-pc register costs JavaScript;
    - [bop_policy]: the two Rop-not-ready schemes of Section III-B (stall
      vs fall-through) across pipeline depths (the [rop_gap]);
    - [context_switch]: the Section IV OS-interaction model — how often can
      the OS flush the JTEs before SCD's benefit erodes;
    - [indirect]: the related-work shootout — baseline code under TTC
      (Chang et al.) and an ITTAGE-style predictor (Seznec & Michaud)
      against VBBI and SCD;
    - [cap_search]: the Section VI-C1 future work, "selecting an optimal
      cap value": exhaustive cap search per benchmark at the 64-entry
      BTB. *)

open Scd_util
open Scd_uarch
open Scd_cosim

let lua_config scheme = { Driver.default_config with scheme }

(* ------------------------------------------------------------------ *)
(* Multi-table SCD (Section IV) on the stack VM                        *)
(* ------------------------------------------------------------------ *)

let run_multi_table ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  let bop_hit header i =
    { Sweep.header; kind = Shown (Printf.sprintf "%.3f");
      value = (fun r -> Stats.bop_hit_rate r.(i).stats) }
  in
  [
    Sweep.table ~title:"Ablation: Section IV multi-table SCD, JavaScript interpreter"
      (fun w ->
        [ Sweep.cell ~scale "js" Scd_core.Scheme.Baseline w;
          Sweep.cell ~scale "js" Scd_core.Scheme.Scd w;
          Sweep.of_config ~scale
            { (lua_config Scd_core.Scheme.Scd) with frontend = Frontend.get "js";
              multi_table = true }
            w ])
      [ Sweep.speedup_column "scd speedup" 1;
        Sweep.speedup_column "multi-table speedup" 2;
        bop_hit "bop hit (1 table)" 1; bop_hit "bop hit (3 tables)" 2 ];
  ]

let multi_table_experiment =
  {
    Experiment.id = "abl-multi";
    paper = "Section IV (extension)";
    title = "Multi-jump-table SCD on the stack VM's dispatch sites";
    run = run_multi_table;
  }

(* ------------------------------------------------------------------ *)
(* bop stall vs fall-through across pipeline depths                    *)
(* ------------------------------------------------------------------ *)

let run_bop_policy ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let points =
    List.concat_map
      (fun gap -> [ (gap, `Stall); (gap, `Fall_through) ])
      [ 3; 5; 7; 9 ]
  in
  let policy_name = function `Stall -> "stall" | `Fall_through -> "fall" in
  (* Per point, a (baseline, SCD) pair of cells in each row. A baseline runs
     no bop, so neither knob moves it: every point shares the simulator's. *)
  let rows =
    Sweep.rows (fun w ->
        List.concat_map
          (fun (gap, policy) ->
            [ Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w;
              Sweep.of_config ~scale
                { (lua_config Scd_core.Scheme.Scd) with
                  machine =
                    { Config.simulator with rop_gap = gap; bop_policy = policy } }
                w ])
          points)
  in
  let table =
    Table.make
      ~title:
        "Ablation: Rop-not-ready policy (Section III-B), Lua geomean SCD speedup"
      ~headers:
        ("rop gap (cycles to Rop)"
        :: List.map
             (fun (gap, policy) -> Printf.sprintf "%s@%d" (policy_name policy) gap)
             points)
  in
  (* Each geomean folds the workloads in registry order. *)
  Table.add_row table
    ("geomean speedup"
    :: List.mapi
         (fun i _ ->
           Sweep.summary Speedup
             (List.map
                (fun (_, r) -> Sweep.speedup_ratio ~baseline:r.(2 * i) r.((2 * i) + 1))
                rows))
         points);
  [ table ]

let bop_policy_experiment =
  {
    Experiment.id = "abl-bop";
    paper = "Section III-B (design choice)";
    title = "Stall vs fall-through when Rop is not ready";
    run = run_bop_policy;
  }

(* ------------------------------------------------------------------ *)
(* Context-switch (OS) sensitivity                                     *)
(* ------------------------------------------------------------------ *)

let run_context_switch ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let name = function
    | None -> "never"
    | Some n -> Printf.sprintf "%dk" (n / 1000)
  in
  [
    Sweep.speedup_table
      ~title:"Ablation: JTE flush on context switch (Section IV), Lua SCD speedup"
      (List.map
         (fun interval ->
           ( "flush@" ^ name interval,
             fun w ->
               ( Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w,
                 Sweep.of_config ~scale
                   { (lua_config Scd_core.Scheme.Scd) with
                     context_switch_interval = interval }
                   w ) ))
         [ Some 10_000; Some 50_000; Some 250_000; None ]);
  ]

let context_switch_experiment =
  {
    Experiment.id = "abl-cs";
    paper = "Section IV (OS interactions)";
    title = "SCD benefit vs context-switch flush frequency";
    run = run_context_switch;
  }

(* ------------------------------------------------------------------ *)
(* Indirect-predictor shootout                                         *)
(* ------------------------------------------------------------------ *)

let run_indirect ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let contenders =
    [ ("btb", Scd_core.Scheme.Baseline, None);
      ("ttc", Scd_core.Scheme.Baseline, Some (Indirect.Ttc { entries = 512 }));
      ( "ittage",
        Scd_core.Scheme.Baseline,
        Some (Indirect.Ittage { table_entries = 256; tables = 4 }) );
      ("vbbi", Scd_core.Scheme.Vbbi, None);
      ("scd", Scd_core.Scheme.Scd, None) ]
  in
  (* Each row: the baseline, then one cell per contender. *)
  let rows =
    Sweep.rows (fun w ->
        Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w
        :: List.map
             (fun (_, scheme, indirect_override) ->
               Sweep.of_config ~scale
                 { (lua_config scheme) with indirect_override }
                 w)
             contenders)
  in
  let table =
    Table.make
      ~title:
        "Ablation: indirect-prediction shootout (related work), Lua geomean"
      ~headers:[ "technique"; "geomean speedup"; "mean branch MPKI";
                 "geomean instr ratio" ]
  in
  List.iteri
    (fun i (label, _, _) ->
      (* A contender's row summarises its column of the sweep, folding the
         workloads in reverse registry order. *)
      let summary kind value =
        Sweep.summary kind (List.rev_map (fun (_, r) -> value r.(0) r.(i + 1)) rows)
      in
      Table.add_row table
        [ label;
          summary Speedup (fun baseline r -> Sweep.speedup_ratio ~baseline r);
          summary Mean (fun _ (r : Driver.result) -> Stats.branch_mpki r.stats);
          summary Ratio (fun baseline r -> Sweep.instr_ratio r baseline) ])
    contenders;
  [ table ]

let indirect_experiment =
  {
    Experiment.id = "abl-ind";
    paper = "Section VII (related work)";
    title = "BTB vs TTC vs ITTAGE vs VBBI vs SCD";
    run = run_indirect;
  }

(* ------------------------------------------------------------------ *)
(* Optimal JTE cap search (Section VI-C1 future work)                  *)
(* ------------------------------------------------------------------ *)

let run_cap_search ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let caps = [ Some 4; Some 8; Some 12; Some 16; Some 24; Some 32; None ] in
  let cap_name = function None -> "inf" | Some c -> string_of_int c in
  let small = Config.with_btb_entries Config.simulator 64 in
  let rows =
    Sweep.rows (fun w ->
        Sweep.cell ~machine:small ~scale "lua" Scd_core.Scheme.Baseline w
        :: List.map
             (fun cap ->
               Sweep.cell ~machine:(Config.with_jte_cap small cap) ~scale "lua"
                 Scd_core.Scheme.Scd w)
             caps)
  in
  let table =
    Table.make
      ~title:
        "Ablation: optimal JTE cap per benchmark at a 64-entry BTB (the paper's future work)"
      ~headers:[ "benchmark"; "best cap"; "speedup at best";
                 "speedup uncapped"; "gain from capping" ]
  in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), r) ->
      let runs =
        List.mapi
          (fun i cap ->
            (cap, Sweep.speedup_percent (Sweep.speedup_ratio ~baseline:r.(0) r.(i + 1))))
          caps
      in
      let best_cap, best = List.fold_left
          (fun (bc, bs) (c, s) -> if s > bs then (c, s) else (bc, bs))
          (List.hd runs) (List.tl runs)
      in
      let uncapped = List.assoc None runs in
      Table.add_row table
        [ w.name; cap_name best_cap; Table.cell_percent best;
          Table.cell_percent uncapped; Table.cell_percent (best -. uncapped) ])
    rows;
  [ table ]

let cap_search_experiment =
  {
    Experiment.id = "abl-cap";
    paper = "Section VI-C1 (future work)";
    title = "Selecting an optimal JTE cap value";
    run = run_cap_search;
  }

(* ------------------------------------------------------------------ *)
(* Superinstructions (Ertl & Gregg) vs and with SCD                    *)
(* ------------------------------------------------------------------ *)

let run_superinstructions ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    Sweep.table
      ~title:
        "Ablation: superinstructions (Ertl & Gregg) vs and combined with SCD, Lua"
      (fun w ->
        [ Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w;
          Sweep.of_config ~scale
            { (lua_config Scd_core.Scheme.Baseline) with superinstructions = true }
            w;
          Sweep.cell ~scale "lua" Scd_core.Scheme.Scd w;
          Sweep.of_config ~scale
            { (lua_config Scd_core.Scheme.Scd) with superinstructions = true }
            w ])
      [ Sweep.speedup_column "super speedup" 1;
        Sweep.speedup_column "scd speedup" 2;
        Sweep.speedup_column "scd+super speedup" 3;
        { header = "bytecode ratio (super)"; kind = Shown (Printf.sprintf "%.3f");
          value =
            (fun r -> float_of_int r.(1).bytecodes /. float_of_int r.(0).bytecodes) } ];
  ]

let superinstructions_experiment =
  {
    Experiment.id = "abl-super";
    paper = "Section VII (related work)";
    title = "Superinstructions vs and combined with SCD";
    run = run_superinstructions;
  }

(* ------------------------------------------------------------------ *)
(* Bytecode replication (Ertl & Gregg) under JT and SCD                *)
(* ------------------------------------------------------------------ *)

let run_replication ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let variants =
    [ ("jt", Scd_core.Scheme.Jump_threading, false);
      ("jt+repl", Scd_core.Scheme.Jump_threading, true);
      ("scd", Scd_core.Scheme.Scd, false);
      ("scd+repl", Scd_core.Scheme.Scd, true) ]
  in
  List.map
    (fun (label, btb) ->
      let machine = Config.with_btb_entries Config.simulator btb in
      Sweep.speedup_table
        ~title:
          (Printf.sprintf "Ablation: bytecode replication under JT and SCD, Lua, %s"
             label)
        (List.map
           (fun (n, scheme, repl) ->
             ( n,
               fun w ->
                 ( Sweep.cell ~machine ~scale "lua" Scd_core.Scheme.Baseline w,
                   Sweep.of_config ~scale
                     { (lua_config scheme) with machine; bytecode_replication = repl }
                     w ) ))
           variants))
    [ ("256-entry BTB", 256); ("64-entry BTB", 64) ]

let replication_experiment =
  {
    Experiment.id = "abl-repl";
    paper = "Section VII (related work)";
    title = "Bytecode replication under jump threading and SCD";
    run = run_replication;
  }

let all =
  [ multi_table_experiment; bop_policy_experiment; context_switch_experiment;
    indirect_experiment; cap_search_experiment; superinstructions_experiment;
    replication_experiment ]
