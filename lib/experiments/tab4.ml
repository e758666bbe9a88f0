(** Table IV: cycle and instruction counts of the Lua interpreter on the
    Rocket (FPGA) configuration with larger inputs — baseline vs jump
    threading vs SCD, with per-benchmark savings and speedups. *)

open Scd_util
open Scd_uarch
open Scd_cosim

let fmt_count n =
  if n >= 1_000_000_000 then Printf.sprintf "%.2fB" (float_of_int n /. 1e9)
  else if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 1_000 then Printf.sprintf "%.1fK" (float_of_int n /. 1e3)
  else string_of_int n

(* One row per workload: the baseline, jump threading and SCD runs. *)
let rows ~scale =
  Sweep.rows (fun w ->
      List.map
        (fun scheme -> Sweep.cell ~machine:Config.fpga ~scale "lua" scheme w)
        Scd_core.Scheme.[ Baseline; Jump_threading; Scd ])

(* Row cell [i]'s instruction and cycle ratios over the baseline's, per
   workload in the reverse registry order the summary folds them in. *)
let instr_ratios rows i = List.rev_map (fun (_, r) -> Sweep.instr_ratio r.(0) r.(i)) rows

let speedup_ratios rows i =
  List.rev_map (fun (_, r) -> Sweep.speedup_ratio ~baseline:r.(0) r.(i)) rows

(** The geomean SCD speedup on the FPGA configuration, in percent; Table V's
    EDP computation consumes this. *)
let scd_geomean_speedup ~scale =
  Sweep.speedup_percent (Summary.geomean (speedup_ratios (rows ~scale) 2))

let run ~quick =
  let rows = rows ~scale:(Sweep.scale_for ~quick Scd_workloads.Workload.Fpga) in
  let table =
    Table.make
      ~title:"Table IV: Lua interpreter on the Rocket (FPGA) configuration"
      ~headers:
        [ "benchmark"; "base inst"; "base cyc"; "jt inst"; "jt cyc";
          "scd inst"; "scd cyc"; "jt inst sav"; "jt speedup"; "scd inst sav";
          "scd speedup" ]
  in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), r) ->
      let counts x = [ fmt_count (Driver.instructions x); fmt_count (Driver.cycles x) ] in
      let savings i = Table.cell_percent (100.0 *. (1.0 -. Sweep.instr_ratio r.(i) r.(0))) in
      let speedup i = Sweep.render Speedup (Sweep.speedup_ratio ~baseline:r.(0) r.(i)) in
      Table.add_row table
        ((w.name :: List.concat_map counts (Array.to_list r))
        @ [ savings 1; speedup 1; savings 2; speedup 2 ]))
    rows;
  Table.add_separator table;
  (* The savings summary is the saving of the geomean instruction ratio,
     consistent with the rows' 1 - x/base. *)
  let geomean i =
    [ Sweep.summary Reduction (instr_ratios rows i);
      Sweep.summary Speedup (speedup_ratios rows i) ]
  in
  Table.add_row table ([ "GEOMEAN"; ""; ""; ""; ""; ""; "" ] @ geomean 1 @ geomean 2);
  [ table ]

let experiment =
  {
    Experiment.id = "tab4";
    paper = "Table IV";
    title = "Cycle and instruction counts on the FPGA configuration (Lua)";
    run;
  }
