(** Figure 8: dynamic instruction count normalised to the baseline (the
    lower, the better). VBBI executes baseline code, so only jump threading
    and SCD change the count. *)

(* Row layout: the baseline, then each scheme the table shows. *)
let schemes = Scd_core.Scheme.[ Jump_threading; Vbbi; Scd ]

let table_for ~scale vm label =
  Sweep.table
    ~title:(Printf.sprintf "Figure 8: normalized dynamic instruction count, %s" label)
    (fun w ->
      List.map
        (fun scheme -> Sweep.cell ~scale vm scheme w)
        (Scd_core.Scheme.Baseline :: schemes))
    (List.mapi
       (fun i scheme ->
         { Sweep.header = Scd_core.Scheme.name scheme; kind = Ratio;
           value = (fun r -> Sweep.instr_ratio r.(i + 1) r.(0)) })
       schemes)

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    table_for ~scale "lua" "Lua";
    table_for ~scale "js" "JavaScript";
  ]

let experiment =
  {
    Experiment.id = "fig8";
    paper = "Figure 8";
    title = "Normalized dynamic instruction count";
    run;
  }
