(** Figure 7: overall speedups of jump threading, VBBI and SCD over the
    out-of-the-box baseline, per benchmark plus geomean, for both
    interpreters (the higher, the better). *)

let table_for ~scale vm label =
  Sweep.speedup_table
    ~title:(Printf.sprintf "Figure 7: overall speedups, %s interpreter (%%)" label)
    (List.map
       (fun scheme ->
         ( Scd_core.Scheme.name scheme,
           fun w ->
             ( Sweep.cell ~scale vm Scd_core.Scheme.Baseline w,
               Sweep.cell ~scale vm scheme w ) ))
       Scd_core.Scheme.[ Jump_threading; Vbbi; Scd ])

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    table_for ~scale "lua" "Lua";
    table_for ~scale "js" "JavaScript";
  ]

let experiment =
  {
    Experiment.id = "fig7";
    paper = "Figure 7";
    title = "Overall speedups for Lua and JavaScript interpreters";
    run;
  }
