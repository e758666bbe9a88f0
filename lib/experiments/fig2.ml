(** Figure 2: branch MPKI breakdown for the baseline Lua interpreter,
    attributing mispredictions to the dispatcher's indirect jump versus all
    other branches. *)

open Scd_util
open Scd_uarch

let run ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  let rows =
    Sweep.rows (fun w -> [ Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w ])
  in
  let table =
    Table.make ~title:"Figure 2: branch MPKI breakdown, Lua interpreter (baseline)"
      ~headers:[ "benchmark"; "dispatch MPKI"; "other MPKI"; "total MPKI" ]
  in
  let mpkis (_, r) =
    let stats = r.(0).Scd_cosim.Driver.stats in
    (Stats.dispatch_mpki stats, Stats.branch_mpki stats)
  in
  List.iter
    (fun (((w : Scd_workloads.Workload.t), _) as row) ->
      let dispatch, total = mpkis row in
      Table.add_row table
        [ w.name; Table.cell_float dispatch;
          Table.cell_float (total -. dispatch); Table.cell_float total ])
    rows;
  Table.add_separator table;
  (* The "other" summary is the difference of the means, not the mean of
     the differences. *)
  let ds, ts = List.split (List.rev_map mpkis rows) in
  Table.add_row table
    [ "MEAN"; Table.cell_float (Summary.mean ds);
      Table.cell_float (Summary.mean ts -. Summary.mean ds);
      Table.cell_float (Summary.mean ts) ];
  [ table ]

let experiment =
  {
    Experiment.id = "fig2";
    paper = "Figure 2";
    title = "Branch MPKI breakdown for Lua interpreter";
    run;
  }
