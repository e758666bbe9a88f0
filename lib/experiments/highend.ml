(** Section VI-C2: SCD on a higher-end dual-issue in-order core
    (Cortex-A8-like: 32 KiB I-cache, 256 KiB L2, 512-entry BTB). The paper
    reports SCD remains effective: 17.6% / 15.2% geomean speedups and ~10%
    instruction-count reductions. *)

let table_for ~scale vm label =
  let machine = Scd_uarch.Config.high_end in
  Sweep.table
    ~title:(Printf.sprintf "Section VI-C2: SCD on a high-end core, %s" label)
    (fun w ->
      [ Sweep.cell ~machine ~scale vm Scd_core.Scheme.Baseline w;
        Sweep.cell ~machine ~scale vm Scd_core.Scheme.Scd w ])
    [ Sweep.speedup_column "scd speedup" 1;
      { header = "inst reduction"; kind = Reduction;
        value = (fun r -> Sweep.instr_ratio r.(0) r.(1)) } ]

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    table_for ~scale "lua" "Lua";
    table_for ~scale "js" "JavaScript";
  ]

let experiment =
  {
    Experiment.id = "highend";
    paper = "Section VI-C2";
    title = "Performance on a higher-end dual-issue core";
    run;
  }
