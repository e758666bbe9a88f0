(** Figure 3: fraction of dynamic instructions spent in dispatcher code for
    the baseline Lua interpreter (the paper reports >25%). *)

open Scd_uarch

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    Sweep.table ~title:"Figure 3: fraction of dispatch instructions, Lua (baseline)"
      (fun w -> [ Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w ])
      [ { Sweep.header = "dispatch instr %"; kind = Mean;
          value = (fun r -> 100.0 *. Stats.dispatch_fraction r.(0).stats) };
        { header = "instrs/bytecode"; kind = Shown Scd_util.Table.cell_float;
          value =
            (fun r ->
              float_of_int r.(0).stats.instructions /. float_of_int r.(0).bytecodes) } ];
  ]

let experiment =
  {
    Experiment.id = "fig3";
    paper = "Figure 3";
    title = "Fraction of dispatch instructions for Lua";
    run;
  }
