(* The benchmark's workloads, each a fixed set of co-simulation cells.

   Every cell is keyed exactly as the experiments' sweep cache keys it
   ([Sweep.std_key] / [Sweep.custom_key]), so results produced here can be
   stored, loaded and rendered through the experiments' own code. All cells
   run at the Test input scale: a paper-sweep pass is then ~5 s on one core,
   which leaves room for several passes, and so a median, in one run. *)

open Scd_cosim

type workload = Paper_sweep | Ctx_switch | Warm_regen

let workloads =
  [ ("paper-sweep", Paper_sweep); ("ctx-switch", Ctx_switch);
    ("warm-regen", Warm_regen) ]

let scale = Scd_workloads.Workload.Test

type t = {
  key : string;  (** The sweep-cache key the experiments read this cell by. *)
  script : Scd_workloads.Workload.t;
  config : Driver.run_config;
  source : string;
}

(* The fig7 cell set (Figures 7-10 read the same cells): every Table III
   script under both interpreters and all four dispatch schemes. *)
let paper_cells ~seed =
  List.concat_map
    (fun vm ->
      List.concat_map
        (fun (w : Scd_workloads.Workload.t) ->
          let source = Scd_workloads.Workload.source w scale in
          List.map
            (fun scheme ->
              { key =
                  Scd_experiments.Sweep.std_key
                    ~machine:Scd_uarch.Config.simulator ~scale vm scheme w;
                script = w;
                config =
                  { Driver.default_config with
                    frontend = Frontend.get vm; scheme; seed };
                source })
            Scd_core.Scheme.all)
        Scd_workloads.Registry.all)
    [ "lua"; "js" ]

(* The abl-cs cell set without its reference columns: Lua under SCD with a
   JTE flush every 10k, 50k or 250k retired instructions. *)
let ctx_switch_cells ~seed =
  List.concat_map
    (fun (w : Scd_workloads.Workload.t) ->
      let source = Scd_workloads.Workload.source w scale in
      List.map
        (fun interval ->
          let tag = Printf.sprintf "cs-%dk" (interval / 1000) in
          { key = Scd_experiments.Sweep.custom_key ~tag w scale;
            script = w;
            config =
              { (Scd_experiments.Ablations.lua_config Scd_core.Scheme.Scd) with
                context_switch_interval = Some interval; seed };
            source })
        [ 10_000; 50_000; 250_000 ])
    Scd_workloads.Registry.all

(** The workload's cells in canonical order, sources generated. *)
let make workload ~seed =
  let seed = Int64.of_int seed in
  Array.of_list
    (match workload with
     | Paper_sweep | Warm_regen -> paper_cells ~seed
     | Ctx_switch -> ctx_switch_cells ~seed)

(** The {!Calib.rescale} sensitivity of a workload's passes, fitted as the
    slope of log pass time on log calibration time across contended and
    quiet phases. Co-simulation follows the kernel one for one; a
    warm-regen pass is largely file reads and system calls, which
    co-tenants slow less than interpreter code. *)
let sensitivity = function Warm_regen -> 0.75 | Paper_sweep | Ctx_switch -> 1.0

(** The tables the experiments render from these cells, as thunks. Figures
    7-10 read exactly the paper-sweep cells; the abl-cs table also reads a
    baseline and a never-flush column, which the first render computes. *)
let tables workload =
  let open Scd_experiments in
  match workload with
  | Paper_sweep | Warm_regen ->
    List.concat_map
      (fun table_for ->
        [ (fun () -> table_for ~scale "lua" "Lua");
          (fun () -> table_for ~scale "js" "JavaScript") ])
      [ Fig7.table_for; Fig8.table_for; Fig9.table_for; Fig10.table_for ]
  | Ctx_switch ->
    [ (fun () -> List.hd (Ablations.run_context_switch ~quick:true)) ]

let frontend_name (c : t) = Frontend.name c.config.frontend

(* The first cell of each distinct [key c], in canonical order. *)
let distinct key cells =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let k = key c in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    (Array.to_list cells)

(** One cell per (frontend, scheme): set-up warms each pair once. *)
let per_scheme cells = distinct (fun c -> (frontend_name c, c.config.scheme)) cells

(** One cell per (frontend, script): the oracle runs each once on the VM. *)
let per_script cells = distinct (fun c -> (frontend_name c, c.script.name)) cells
