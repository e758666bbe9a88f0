(** Figure 11: sensitivity studies.

    (a)/(b): SCD speedup over baseline as the BTB shrinks from 512 to 64
    entries, for Lua and JavaScript.
    (c)/(d): effect of capping the number of resident JTEs with the smallest
    (64-entry) BTB; the rightmost column is the uncapped default. *)

open Scd_uarch

let btb_sizes = [ 64; 128; 256; 512 ]
let jte_caps = [ Some 8; Some 16; Some 32; None ]

let cap_name = function None -> "inf" | Some c -> string_of_int c

let size_table ~scale part vm label =
  Sweep.speedup_table
    ~title:(Printf.sprintf "Figure 11(%s): SCD speedup vs BTB size, %s (%%)" part label)
    (List.map
       (fun size ->
         let machine = Config.with_btb_entries Config.simulator size in
         ( Printf.sprintf "btb-%d" size,
           fun w ->
             ( Sweep.cell ~machine ~scale vm Scd_core.Scheme.Baseline w,
               Sweep.cell ~machine ~scale vm Scd_core.Scheme.Scd w ) ))
       btb_sizes)

let cap_table ~scale part vm label =
  let small = Config.with_btb_entries Config.simulator 64 in
  Sweep.speedup_table
    ~title:
      (Printf.sprintf "Figure 11(%s): SCD speedup vs JTE cap (64-entry BTB), %s (%%)"
         part label)
    (List.map
       (fun cap ->
         ( "cap-" ^ cap_name cap,
           fun w ->
             ( Sweep.cell ~machine:small ~scale vm Scd_core.Scheme.Baseline w,
               Sweep.cell ~machine:(Config.with_jte_cap small cap) ~scale vm
                 Scd_core.Scheme.Scd w ) ))
       jte_caps)

let experiment part table title vm label =
  {
    Experiment.id = "fig11" ^ part;
    paper = Printf.sprintf "Figure 11(%s)" part;
    title = Printf.sprintf "%s (%s)" title label;
    run =
      (fun ~quick ->
        [ table ~scale:(Sweep.scale_for ~quick Scd_workloads.Workload.Small) part vm
            label ]);
  }

let size_title = "SCD speedup sensitivity to BTB size"
let cap_title = "SCD speedup vs JTE cap at 64-entry BTB"
let experiment_a = experiment "a" size_table size_title "lua" "Lua"
let experiment_b = experiment "b" size_table size_title "js" "JavaScript"
let experiment_c = experiment "c" cap_table cap_title "lua" "Lua"
let experiment_d = experiment "d" cap_table cap_title "js" "JavaScript"
