(* perfbench: the repository's end-to-end benchmark of the co-simulator.

     bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0

   One process runs one workload (Cells) on one core: it sets the workload
   up several times and keeps the median set-up time, then repeats timed
   passes over the workload's cells, in a seed-shuffled order, until
   [--seconds] have elapsed, and reports medians. Host times are rescaled
   to a reference host speed by calibration samples taken next to every
   cell (Calib), so co-tenants of a shared host do not move them. Every
   pass checks every cell's script output against the VM run alone and
   digests the simulated results, which must repeat exactly from pass to
   pass. The last line of
   standard output is one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics (Layers) with [--trace 1]. The traced
   run also writes its spans to perfbench/out/ as a Chrome trace. *)

open Scd_cosim
module Prof = Scd_obs.Prof
module Store = Scd_experiments.Store
module Sweep = Scd_experiments.Sweep

(* Set-ups per untraced run, alternating with passes; their median is what
   keeps work moved into set-up visible. The co-simulation workloads set up
   in ~0.1 s, where an occasional 1.5x outlier is common, so they take five;
   warm-regen's set-up co-simulates every cell once to prime the store and
   takes three. *)
let setup_repeats = function Cells.Warm_regen -> 3 | Paper_sweep | Ctx_switch -> 5
let out_dir = Filename.concat "perfbench" "out"

type args = {
  workload : Cells.workload;
  name : string;
  seed : int;
  seconds : float;
  traced : bool;
}

let parse_args () =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline m;
        prerr_endline
          "usage: main.exe --workload (paper-sweep|ctx-switch|warm-regen) \
           --seed N --seconds S --trace (0|1)";
        exit 2)
      fmt
  in
  let workload = ref None and seed = ref None and seconds = ref None in
  let traced = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v Cells.workloads with
       | Some w -> workload := Some (v, w)
       | None -> fail "unknown workload %S" v);
      go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n -> seed := Some n
       | None -> fail "--seed requires an integer, got %S" v);
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0.0 -> seconds := Some s
       | _ -> fail "--seconds requires a positive number, got %S" v);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
       | "0" -> traced := Some false
       | "1" -> traced := Some true
       | _ -> fail "--trace requires 0 or 1, got %S" v);
      go rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !traced) with
  | Some (name, workload), Some seed, Some seconds, Some traced ->
    { workload; name; seed; seconds; traced }
  | _ -> fail "--workload, --seed, --seconds and --trace are all required"

let now_s () = float (Layers.now_ns ()) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type env = {
  cells : Cells.t array;  (** Canonical order. *)
  expected : (string * string, string) Hashtbl.t;
      (** (frontend, script) -> the script's output on the VM alone. *)
  store : Store.t;
}

let vm_output (c : Cells.t) =
  let (module F : Frontend.S) = c.config.frontend in
  Scd_runtime.Value.reset_table_ids ();
  let program = F.compile Frontend.default_options c.source in
  let ctx = Scd_runtime.Builtins.create_ctx ~seed:c.config.seed () in
  F.run program ~ctx ~trace:ignore;
  Scd_runtime.Builtins.output ctx

let expected env (c : Cells.t) =
  Hashtbl.find env.expected (Cells.frontend_name c, c.script.name)

(* Everything before the timed passes: generate the sources, run the oracle,
   open a fresh store, co-simulate a small script once per (frontend,
   scheme) so the process-wide template memo is filled, and — for
   warm-regen — prime the store with every cell through [compute]. *)
let setup args ~dir ~compute =
  let cells = Cells.make args.workload ~seed:args.seed in
  let expected = Hashtbl.create 32 in
  List.iter
    (fun (c : Cells.t) ->
      Hashtbl.replace expected (Cells.frontend_name c, c.script.name)
        (vm_output c))
    (Cells.per_script cells);
  rm_rf dir;
  let store = Store.create dir in
  let warm =
    Scd_workloads.Workload.source Scd_workloads.Fibo.workload
      Scd_workloads.Workload.Test
  in
  Prof.span "warmup" (fun () ->
      List.iter
        (fun (c : Cells.t) ->
          ignore
            (Driver.run
               { Driver.default_config with
                 frontend = c.config.frontend; scheme = c.config.scheme;
                 seed = c.config.seed }
               ~source:warm
              : Result.t))
        (Cells.per_scheme cells));
  let env = { cells; expected; store } in
  if args.workload = Cells.Warm_regen then begin
    Array.iter (fun c -> ignore (compute env c : Result.t * bool)) cells;
    Sweep.set_store (Some store)
  end;
  env

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  seconds : float;  (** Host seconds, the sum of [parts]. *)
  parts : float array;
      (** Seconds per cell in run order (warm-regen: one part per pass). *)
  calib : float array;  (** The {!Calib.sample} taken next to each part. *)
  minor_words : float;
  counts : Counts.t;
  tables : Int64.t;  (** Digest of the rendered tables (warm-regen). *)
  attempted : int;
  failed : int;
}

let timed f =
  let mw0 = Gc.minor_words () in
  let t0 = Layers.now_ns () in
  let x = f () in
  let t1 = Layers.now_ns () in
  (x, float (t1 - t0) /. 1e9, Gc.minor_words () -. mw0)

(* Oracle and digest over a pass's results, in canonical order. *)
let check env results =
  let failed = ref 0 and ok = ref [] in
  Array.iteri
    (fun i (c : Cells.t) ->
      match results.(i) with
      | Some (r : Result.t) when r.output = expected env c ->
        ok := (c.key, r) :: !ok
      | Some _ ->
        Printf.eprintf "cell %s: output differs from the VM alone\n%!" c.key;
        incr failed
      | None -> incr failed)
    env.cells;
  (Counts.of_results (List.rev !ok), !failed)

(* One co-simulated cell per Driver.run, each result saved to the store as
   the sweep does; [compute] is the untraced call or the traced probe. *)
let cosim_pass env ~compute order =
  let results = Array.make (Array.length env.cells) None in
  let parts = Array.make (Array.length env.cells) 0.0 in
  let calib = Array.make (Array.length env.cells) 0.0 in
  let (), _, minor_words =
    timed (fun () ->
        Array.iteri
          (fun j i ->
            let c = env.cells.(i) in
            calib.(j) <- Calib.sample ();
            let t0 = Layers.now_ns () in
            results.(i) <-
              (match compute env c with
               | r, true -> Some r
               | _, false ->
                 Printf.eprintf "cell %s: store round trip differs\n%!" c.key;
                 None
               | exception e ->
                 Printf.eprintf "cell %s: %s\n%!" c.key (Printexc.to_string e);
                 None);
            parts.(j) <- float (Layers.now_ns () - t0) /. 1e9)
          order)
  in
  let counts, failed = check env results in
  { seconds = Array.fold_left ( +. ) 0.0 parts; parts; calib; minor_words; counts; tables = 0L;
    attempted = Array.length env.cells; failed }

let compute_untraced env (c : Cells.t) =
  let r = Driver.run c.config ~source:c.source in
  Store.save env.store ~key:c.key r;
  (r, true)

(* Re-render the experiments' tables from the primed store: every cell is a
   Store.load and a Result decode, and none may be co-simulated. *)
let regen_pass env ~tables order =
  Sweep.clear ();
  let runs0 = Driver.runs () and misses0 = Store.misses env.store in
  let rendered = Array.make (Array.length tables) "" in
  let calib = Calib.sample () in
  let (), seconds, minor_words =
    timed (fun () ->
        Prof.span "render" (fun () ->
            Array.iter
              (fun i -> rendered.(i) <- Scd_util.Table.render (tables.(i) ()))
              order))
  in
  let computed = Driver.runs () - runs0 in
  let missed = Store.misses env.store - misses0 in
  if computed > 0 || missed > 0 then
    Printf.eprintf "warm-regen pass: %d store misses, %d cells co-simulated\n%!"
      missed computed;
  let counts, failed =
    check env (Array.map (fun (c : Cells.t) -> Sweep.find_memory c.key) env.cells)
  in
  { seconds; parts = [| seconds |]; calib = [| calib |]; minor_words; counts;
    tables = Array.fold_left Counts.fnv1a 0xcbf29ce484222325L rendered;
    attempted = Array.length env.cells; failed = failed + max missed computed }

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Scd_util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Passes, each in a fresh seed-drawn order, until about [seconds] have
   elapsed: another pass starts only while at most half of it would run
   past the deadline, judged by the pass before. At least one pass. *)
let run_passes ~rng ~seconds ~n pass =
  let t_end = now_s () +. seconds in
  let rec go acc =
    let p = pass (shuffle rng n) in
    let acc = p :: acc in
    if now_s () +. (p.seconds /. 2.0) < t_end then go acc else List.rev acc
  in
  go []

(* Each pass's time on the reference host. Every part is rescaled by the
   median of the nine calibration samples nearest it in run order: the
   host's speed changes over seconds, and the window follows that while
   smoothing the jitter of single 2 ms samples. *)
let rescaled ~sensitivity passes =
  let samples = Array.concat (List.map (fun p -> p.calib) passes) in
  let n = Array.length samples in
  let near j =
    let lo = max 0 (j - 4) and hi = min (n - 1) (j + 4) in
    median (Array.to_list (Array.sub samples lo (hi - lo + 1)))
  in
  let offset = ref 0 in
  List.map
    (fun p ->
      let t = ref 0.0 in
      Array.iteri
        (fun i part ->
          t := !t +. Calib.rescale ~sensitivity part ~calib:(near (!offset + i)))
        p.parts;
      offset := !offset + Array.length p.parts;
      !t)
    passes

let median_rescaled ~sensitivity passes = median (rescaled ~sensitivity passes)

(* Reference time over host time, from every calibration sample. *)
let speed passes =
  Calib.reference_s
  /. median (List.concat_map (fun p -> Array.to_list p.calib) passes)

(* Set-up, timed and rescaled by the median of calibration samples taken
   either side of it. *)
let timed_setup f =
  let samples () = List.init 3 (fun _ -> Calib.sample ()) in
  let before = samples () in
  let env, t, _ = timed f in
  (env, Calib.rescale t ~calib:(median (before @ samples ())))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (Scd_obs.Json.string name) (json_number v)
             (Scd_obs.Json.string unit))
         metrics)
  ^ "}"

let print_passes ~sensitivity label = function
  | [] -> ()
  | passes ->
    Printf.printf
      "%s: %d passes, median %.6f s on this host, %.6f s rescaled to the \
       reference host (host speed %.3f of reference)\n"
      label (List.length passes)
      (median (List.map (fun p -> p.seconds) passes))
      (median_rescaled ~sensitivity passes) (speed passes)

let compute_traced layers env c = Layers.probe layers env.store c

let all_equal passes =
  match passes with
  | [] -> true
  | p0 :: _ ->
    List.for_all
      (fun p ->
        Int64.equal p.counts.digest p0.counts.digest
        && Int64.equal p.tables p0.tables)
      passes

let () =
  let args = parse_args () in
  let work = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  at_exit (fun () -> rm_rf work);
  let rng = Scd_util.Rng.create (Int64.of_int args.seed) in
  let tables = Array.of_list (Cells.tables args.workload) in
  let sensitivity = Cells.sensitivity args.workload in
  let passes env ~compute ~seconds =
    let n, pass =
      match args.workload with
      | Cells.Warm_regen -> (Array.length tables, regen_pass env ~tables)
      | Paper_sweep | Ctx_switch ->
        (Array.length env.cells, cosim_pass env ~compute)
    in
    run_passes ~rng ~seconds ~n (fun order ->
        Prof.span "pass" (fun () -> pass order))
  in
  let layers = Layers.create () in
  let prof = Prof.create ~max_events:200_000 () in
  let env, setups, plain, traced, metrics =
    if not args.traced then begin
      (* Set-ups alternate with passes, so both sample the whole run. Each
         starts from a compacted heap, so neither its time nor the peak heap
         depends on how many passes ran before it. *)
      let repeats = setup_repeats args.workload in
      let rounds =
        List.init repeats (fun k ->
            let dir = Filename.concat work (Printf.sprintf "store-%d" k) in
            Gc.compact ();
            let env, s =
              timed_setup (fun () -> setup args ~dir ~compute:compute_untraced)
            in
            let ps =
              passes env ~compute:compute_untraced
                ~seconds:(args.seconds /. float repeats)
            in
            if k < repeats - 1 then rm_rf dir;
            (s, env, ps))
      in
      let env = (fun (_, env, _) -> env) (List.nth rounds (repeats - 1)) in
      let setups = List.map (fun (s, _, _) -> s) rounds in
      let plain = List.concat_map (fun (_, _, ps) -> ps) rounds in
      let wall = median_rescaled ~sensitivity plain in
      let p0 = List.hd plain in
      let heap = (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) in
      ( env, setups, plain, [],
        [ ("wall_s", "s", wall);
          ("cells_per_s", "cells/s", float p0.attempted /. wall);
          ("sim_instr_per_s", "instr/s",
           float p0.counts.stats.instructions /. wall);
          ("setup_s", "s", median setups);
          ("peak_heap_mb", "MiB", float heap /. 1048576.0);
          ("minor_words_per_bc", "words/bc",
           median
             (List.map
                (fun p -> p.minor_words /. float (max 1 p.counts.bytecodes))
                plain)) ] )
    end
    else begin
      let compute = compute_traced layers in
      Prof.activate prof;
      let env =
        Prof.span "setup" (fun () ->
            setup args ~dir:(Filename.concat work "store") ~compute)
      in
      Prof.deactivate ();
      let half = args.seconds /. 2.0 in
      let plain = passes env ~compute:compute_untraced ~seconds:half in
      Prof.activate prof;
      let traced = passes env ~compute ~seconds:half in
      Prof.deactivate ();
      (* The co-simulation workloads render the experiments' tables once
         from the store their passes filled: a first, untraced render
         loads every cell (and computes the abl-cs reference columns), the
         traced one then reads the sweep memo only. *)
      let render_path =
        match args.workload with
        | Cells.Warm_regen -> "pass/render"
        | Paper_sweep | Ctx_switch ->
          Sweep.set_store (Some env.store);
          let render () =
            Array.iter
              (fun t -> ignore (Scd_util.Table.render (t ()) : string))
              tables
          in
          render ();
          Prof.activate prof;
          Prof.span "render" render;
          Prof.deactivate ();
          "render"
      in
      let metrics =
        Layers.metrics layers prof
          ~probe_root:(if args.workload = Cells.Warm_regen then "setup" else "pass")
          ~warmup:"setup/warmup" ~render:render_path
          ~counts:(List.hd traced).counts
          ~probe_speed:(Calib.reference_s /. median layers.calib)
          ~speed:(speed (plain @ traced))
          ~overhead:
            ((median_rescaled ~sensitivity traced
              /. median_rescaled ~sensitivity plain)
            -. 1.0)
      in
      let oc =
        open_out
          (Filename.concat out_dir
             (Printf.sprintf "trace-%s-seed%d.json" args.name args.seed))
      in
      output_string oc (Layers.chrome_trace prof ~metrics_json:(metrics_json metrics));
      close_out oc;
      (env, [], plain, traced, metrics)
    end
  in
  let all = plain @ traced in
  let attempted = List.fold_left (fun n p -> n + p.attempted) 0 all in
  let failed = List.fold_left (fun n p -> n + p.failed) 0 all in
  let repeats = all_equal all in
  let replay_ok = layers.non_scd_exact = layers.non_scd in
  if not repeats then prerr_endline "simulated results differ between passes";
  if not replay_ok then
    prerr_endline "shadow replay differs from the run on a non-SCD cell";
  Printf.printf "perfbench %s: seed %d, %d cells, trace %s\n" args.name
    args.seed (Array.length env.cells) (if args.traced then "on" else "off");
  if setups <> [] then
    Printf.printf "set-ups: %s s rescaled\n"
      (String.concat " " (List.map (Printf.sprintf "%.6f") setups));
  print_passes ~sensitivity "untraced" plain;
  print_passes ~sensitivity "traced" traced;
  Printf.printf "%s\n" (Counts.to_string (List.hd all).counts);
  if args.workload = Cells.Warm_regen then
    Printf.printf "tables digest %016Lx\n" (List.hd all).tables;
  Printf.printf "digest repeats across %d passes: %b\n" (List.length all) repeats;
  Printf.printf "cells_failed %d of cells_attempted %d\n" failed attempted;
  if args.traced then begin
    Printf.printf
      "shadow replay exact: %d/%d cells, %d/%d non-SCD (SCD cells do not \
       replay the engine's JTE writes, so uarch.* is approximate on them)\n"
      layers.replay_exact layers.cells layers.non_scd_exact layers.non_scd;
    Printf.printf "cosim.expand_ns_per_bc is derived: cosim - vm - uarch\n";
    List.iter
      (fun (name, unit, v) -> Printf.printf "  %-34s %14.4f %s\n" name v unit)
      metrics
  end;
  let correct = failed = 0 && repeats && replay_ok in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct attempted failed (metrics_json metrics);
  exit (if correct then 0 else 1)
