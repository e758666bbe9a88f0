(** Figure 9: branch misprediction rate in MPKI for all four schemes (the
    lower, the better). *)

open Scd_uarch

let table_for ~scale vm label =
  Sweep.table
    ~title:(Printf.sprintf "Figure 9: branch misprediction MPKI, %s" label)
    (fun w -> List.map (fun scheme -> Sweep.cell ~scale vm scheme w) Scd_core.Scheme.all)
    (List.mapi
       (fun i scheme ->
         { Sweep.header = Scd_core.Scheme.name scheme; kind = Mean;
           value = (fun r -> Stats.branch_mpki r.(i).stats) })
       Scd_core.Scheme.all)

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    table_for ~scale "lua" "Lua";
    table_for ~scale "js" "JavaScript";
  ]

let experiment =
  {
    Experiment.id = "fig9";
    paper = "Figure 9";
    title = "Branch misprediction rate (MPKI)";
    run;
  }
