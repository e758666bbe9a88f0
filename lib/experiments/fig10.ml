(** Figure 10: instruction cache miss rates in MPKI (the lower, the
    better). Jump threading's replicated dispatchers inflate the code
    footprint; SCD leaves it untouched. *)

open Scd_uarch

let table_for ~scale vm label =
  Sweep.table
    ~title:(Printf.sprintf "Figure 10: I-cache miss MPKI, %s" label)
    (fun w -> List.map (fun scheme -> Sweep.cell ~scale vm scheme w) Scd_core.Scheme.all)
    (List.mapi
       (fun i scheme ->
         { Sweep.header = Scd_core.Scheme.name scheme; kind = Mean;
           value = (fun r -> Stats.icache_mpki r.(i).stats) })
       Scd_core.Scheme.all
    @ [ (* Scheme.all lists jump threading second *)
        { header = "code bytes (jt)"; kind = Shown (Printf.sprintf "%.0f");
          value = (fun r -> float_of_int r.(1).code_bytes) } ])

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  [
    table_for ~scale "lua" "Lua";
    table_for ~scale "js" "JavaScript";
  ]

let experiment =
  {
    Experiment.id = "fig10";
    paper = "Figure 10";
    title = "Instruction cache miss rates (MPKI)";
    run;
  }
