(* scdsim: command-line front end for the Short-Circuit Dispatch
   reproduction. Subcommands:

     scdsim run --workload fibo --vm lua --scheme scd   co-simulate a script
     scdsim run --file prog.mina --scheme baseline
     scdsim trace fibo --interval 10000 --out t.json    telemetry run
     scdsim prof fibo --runs 3 --json p.json -o t.json  host-runtime profile
     scdsim budget BENCH.json                           allocation budgets
     scdsim exp fig7 [--quick] [--csv] [--cache [DIR]]  regenerate a figure
     scdsim cache stats|clear|verify                    persistent sweep cache
     scdsim check [--seeds N] [-f F] [--faults]         differential checker
     scdsim list                                        inventory
     scdsim assemble prog.erv -o prog.hex               build a binary image
     scdsim exec prog.erv|prog.hex                      run ERV32 code *)

open Cmdliner

let scheme_conv =
  let parse s =
    match Scd_core.Scheme.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Scd_core.Scheme.name s))

(* VM selection goes through the frontend registry, so a newly registered
   interpreter is immediately addressable from the CLI. *)
let vm_conv =
  let parse s =
    match Scd_cosim.Frontend.find s with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown vm %S (%s)" s
              (String.concat "|" (Scd_cosim.Frontend.names ()))))
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Scd_cosim.Frontend.name f))

let machine_conv =
  let parse = function
    | "simulator" | "sim" -> Ok Scd_uarch.Config.simulator
    | "fpga" | "rocket" -> Ok Scd_uarch.Config.fpga
    | "high-end" | "highend" -> Ok Scd_uarch.Config.high_end
    | s -> Error (`Msg (Printf.sprintf "unknown machine %S (sim|fpga|high-end)" s))
  in
  Arg.conv (parse, fun fmt (m : Scd_uarch.Config.t) -> Format.pp_print_string fmt m.name)

let scale_conv =
  let parse = function
    | "test" -> Ok Scd_workloads.Workload.Test
    | "small" -> Ok Scd_workloads.Workload.Small
    | "sim" -> Ok Scd_workloads.Workload.Sim
    | "fpga" -> Ok Scd_workloads.Workload.Fpga
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  Arg.conv (parse, fun fmt s ->
      Format.pp_print_string fmt (Scd_workloads.Workload.scale_name s))

(* ------------------------------------------------------------------ *)
(* Arguments and errors shared by run, trace and prof                  *)
(* ------------------------------------------------------------------ *)

let workload_pos =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"WORKLOAD" ~doc:"Named benchmark workload (see 'scdsim list').")

let vm_arg =
  Arg.(value & opt vm_conv (Scd_cosim.Frontend.get "lua")
       & info [ "vm" ] ~docv:"VM" ~doc:"Interpreter: lua (register) or js (stack).")

let scheme_arg =
  Arg.(value & opt scheme_conv Scd_core.Scheme.Scd
       & info [ "s"; "scheme" ] ~docv:"SCHEME"
           ~doc:"Dispatch scheme: baseline, jump-threading, vbbi, scd.")

let machine_arg =
  Arg.(value & opt machine_conv Scd_uarch.Config.simulator
       & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"sim, fpga or high-end.")

let scale_arg =
  Arg.(value & opt scale_conv Scd_workloads.Workload.Sim
       & info [ "scale" ] ~docv:"SCALE" ~doc:"test, small, sim or fpga inputs.")

let find_workload name =
  match Scd_workloads.Registry.find name with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S; try: %s" name
         (String.concat ", " Scd_workloads.Registry.names))

(* [f ()], with the guest script's compile and runtime errors as messages. *)
let guest_errors f =
  try Ok (f ()) with
  | Scd_runtime.Value.Runtime_error m -> Error ("runtime error: " ^ m)
  | Scd_rvm.Compiler.Error m | Scd_svm.Compiler.Error m ->
    Error ("compile error: " ^ m)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_result scheme (r : Scd_cosim.Driver.result) ~show_output =
  let s = r.stats in
  let open Scd_uarch.Stats in
  Printf.printf "scheme            %s\n" (Scd_core.Scheme.name scheme);
  Printf.printf "bytecodes         %d\n" r.bytecodes;
  Printf.printf "instructions      %d\n" s.instructions;
  Printf.printf "cycles            %d\n" s.cycles;
  Printf.printf "CPI               %.3f\n" (cpi s);
  Printf.printf "dispatch fraction %.1f%%\n" (100.0 *. dispatch_fraction s);
  Printf.printf "branch MPKI       %.2f (dispatch %.2f)\n" (branch_mpki s)
    (dispatch_mpki s);
  Printf.printf "I-cache MPKI      %.2f\n" (icache_mpki s);
  Printf.printf "D-cache MPKI      %.2f\n" (dcache_mpki s);
  Printf.printf "bop hit rate      %.3f (%d stall cycles)\n" (bop_hit_rate s)
    s.bop_stall_cycles;
  Printf.printf "code footprint    %d bytes\n" r.code_bytes;
  if show_output then (
    print_endline "--- script output ---";
    print_string r.output)

let run_cmd =
  let workload =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Named benchmark workload.")
  in
  let file =
    Arg.(value & opt (some non_dir_file) None
         & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Mina script file.")
  in
  let show_output =
    Arg.(value & flag & info [ "output" ] ~doc:"Print the script's output.")
  in
  let btb_entries =
    Arg.(value & opt (some int) None
         & info [ "btb" ] ~docv:"N" ~doc:"Override the BTB entry count.")
  in
  let jte_cap =
    Arg.(value & opt (some int) None
         & info [ "jte-cap" ] ~docv:"N" ~doc:"Cap the number of resident JTEs.")
  in
  let multi_table =
    Arg.(value & flag
         & info [ "multi-table" ]
             ~doc:"Give each dispatch site its own jump table (Section IV).")
  in
  let superinstructions =
    Arg.(value & flag
         & info [ "super" ]
             ~doc:"Fuse compare+branch bytecode pairs (register VM only).")
  in
  let action workload file vm scheme machine scale show_output btb_entries
      jte_cap multi_table superinstructions =
    let source =
      match (workload, file) with
      | Some name, None ->
        Result.map (fun w -> Scd_workloads.Workload.source w scale) (find_workload name)
      | None, Some path ->
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Ok s
      | _ -> Error "pass exactly one of --workload or --file"
    in
    match source with
    | Error m -> `Error (false, m)
    | Ok source ->
      let machine =
        match btb_entries with
        | Some n -> Scd_uarch.Config.with_btb_entries machine n
        | None -> machine
      in
      let machine =
        match jte_cap with
        | Some c -> Scd_uarch.Config.with_jte_cap machine (Some c)
        | None -> machine
      in
      let config =
        { Scd_cosim.Driver.default_config with
          frontend = vm; scheme; machine; multi_table; superinstructions }
      in
      match guest_errors (fun () -> Scd_cosim.Driver.run config ~source) with
      | Error m -> `Error (false, m)
      | Ok r ->
        print_result scheme r ~show_output;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Co-simulate a script on the modelled embedded core")
    Term.(ret (const action $ workload $ file $ vm_arg $ scheme_arg $ machine_arg
               $ scale_arg $ show_output $ btb_entries $ jte_cap $ multi_table
               $ superinstructions))

(* ------------------------------------------------------------------ *)
(* trace: co-simulate with telemetry attached                          *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let attr_table ~attr ~name_of ~total_cycles attribution =
  let t =
    Scd_util.Table.make
      ~title:(Printf.sprintf "cycle attribution by %s" attr)
      ~headers:[ attr; "bytecodes"; "cycles"; "cycles%"; "instrs"; "mispredicts" ]
  in
  List.iter
    (fun (r : Scd_obs.Attribution.row) ->
      Scd_util.Table.add_row t
        [ name_of r.key;
          string_of_int r.events;
          string_of_int r.cycles;
          Scd_util.Table.cell_percent
            (if total_cycles = 0 then 0.0
             else 100.0 *. float_of_int r.cycles /. float_of_int total_cycles);
          string_of_int r.instructions;
          string_of_int r.mispredicts ])
    (Scd_obs.Attribution.rows attribution);
  t

let trace_cmd =
  let interval =
    Arg.(value & opt int 10_000
         & info [ "interval" ] ~docv:"N"
             ~doc:"Sample the time series every N retired instructions.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write Chrome trace-event JSON (chrome://tracing / Perfetto).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write the time series as CSV.")
  in
  let attr =
    Arg.(value & opt (enum [ ("site", `Site); ("opcode", `Opcode) ]) `Site
         & info [ "attr" ] ~docv:"KIND"
             ~doc:"Attribution table to print: per dispatch site or per opcode.")
  in
  let context_switch =
    Arg.(value & opt (some int) None
         & info [ "cs-interval" ] ~docv:"N"
             ~doc:"Flush JTEs every N retired instructions (context-switch model).")
  in
  let multi_table =
    Arg.(value & flag
         & info [ "multi-table" ]
             ~doc:"Give each dispatch site its own jump table (Section IV).")
  in
  let action workload vm scheme machine scale interval out csv attr
      context_switch multi_table =
    if interval <= 0 then `Error (false, "--interval must be positive")
    else
      match find_workload workload with
      | Error m -> `Error (false, m)
      | Ok w -> (
        let source = Scd_workloads.Workload.source w scale in
        let config =
          { Scd_cosim.Driver.default_config with
            frontend = vm; scheme; machine; multi_table;
            context_switch_interval = context_switch }
        in
        let telemetry = Scd_cosim.Telemetry.create ~interval () in
        match guest_errors (fun () -> Scd_cosim.Driver.run ~telemetry config ~source) with
        | Error m -> `Error (false, m)
        | Ok r ->
          let open Scd_cosim.Telemetry in
          let s = r.stats in
          Printf.printf "workload          %s (%s scale, %s VM, %s)\n" w.name
            (Scd_workloads.Workload.scale_name scale)
            (Scd_cosim.Frontend.name vm)
            (Scd_core.Scheme.name scheme);
          Printf.printf "instructions      %d\n" s.Scd_uarch.Stats.instructions;
          Printf.printf "cycles            %d\n" s.Scd_uarch.Stats.cycles;
          Printf.printf "samples           %d (every %d instructions)\n"
            (Scd_obs.Series.length (series telemetry))
            (interval telemetry);
          let cpb = cycles_per_bytecode telemetry in
          Printf.printf "cycles/bytecode   mean %.1f  p50 <=%d  p99 <=%d  max %d\n"
            (Scd_obs.Histogram.mean cpb)
            (Scd_obs.Histogram.quantile cpb 0.5)
            (Scd_obs.Histogram.quantile cpb 0.99)
            (Scd_obs.Histogram.max_value cpb);
          let bursts = burst_lengths telemetry in
          Printf.printf "mispredict bursts %d (mean length %.1f, max %d)\n\n"
            (Scd_obs.Histogram.count bursts)
            (Scd_obs.Histogram.mean bursts)
            (Scd_obs.Histogram.max_value bursts);
          let table =
            match attr with
            | `Site ->
              attr_table ~attr:"site" ~name_of:site_name
                ~total_cycles:s.Scd_uarch.Stats.cycles (site_attr telemetry)
            | `Opcode ->
              attr_table ~attr:"opcode" ~name_of:string_of_int
                ~total_cycles:s.Scd_uarch.Stats.cycles (opcode_attr telemetry)
          in
          print_string (Scd_util.Table.render table);
          (match csv with
           | None -> ()
           | Some path ->
             write_file path (to_csv telemetry);
             Printf.printf "\nwrote %s\n" path);
          match out with
          | None -> `Ok ()
          | Some path -> (
            let json = to_chrome_trace telemetry in
            match Scd_obs.Json.validate json with
            | Error m ->
              `Error
                (false, "internal error: emitted trace JSON is invalid: " ^ m)
            | Ok () ->
              write_file path json;
              Printf.printf "\nwrote %s (load in chrome://tracing or Perfetto)\n"
                path;
              `Ok ()))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Co-simulate a workload with telemetry: interval time series, \
             Chrome-trace export, per-site/per-opcode attribution")
    Term.(ret (const action $ workload_pos $ vm_arg $ scheme_arg $ machine_arg
               $ scale_arg $ interval $ out $ csv $ attr $ context_switch
               $ multi_table))

(* ------------------------------------------------------------------ *)
(* prof: profile the simulator process itself                          *)
(* ------------------------------------------------------------------ *)

(* Where `scdsim trace` observes the *simulated* core (cycles), `scdsim
   prof` observes the *host* OCaml process running the simulation: wall
   time and GC counter deltas per Scd_obs.Prof span (the driver phases —
   setup, compile, layout, execute, snapshot — nested under one "run"
   span per repetition). *)

let host_info_json () =
  Printf.sprintf
    "{ \"ocaml\": %s, \"word_size\": %d, \"os_type\": %s, \
     \"recommended_domains\": %d }"
    (Scd_obs.Json.string Sys.ocaml_version)
    Sys.word_size
    (Scd_obs.Json.string Sys.os_type)
    (Scd_util.Pool.default_jobs ())

(* Depth-first over the span forest in first-completion order; every parent
   gets an explicit "(unattributed)" row — its own time and allocation not
   covered by a named child — placed before its children. *)
type prof_row =
  | Row_span of Scd_obs.Prof.span
  | Row_unattributed of Scd_obs.Prof.span * int * float  (* wall_ns, minor *)

let prof_rows profile =
  let rows = ref [] in
  let rec visit (s : Scd_obs.Prof.span) =
    rows := Row_span s :: !rows;
    match Scd_obs.Prof.children profile s with
    | [] -> ()
    | kids ->
      let aw, am = Scd_obs.Prof.attributed profile s in
      rows :=
        Row_unattributed (s, s.wall_ns - aw, s.gc.minor_words -. am) :: !rows;
      List.iter visit kids
  in
  List.iter visit (Scd_obs.Prof.roots profile);
  List.rev !rows

let prof_table profile =
  let total_wall =
    List.fold_left
      (fun acc (s : Scd_obs.Prof.span) -> acc + s.wall_ns)
      0 (Scd_obs.Prof.roots profile)
  in
  let pct ns =
    Scd_util.Table.cell_percent
      (if total_wall = 0 then 0.0
       else 100.0 *. float_of_int ns /. float_of_int total_wall)
  in
  let t =
    Scd_util.Table.make ~title:"host profile (wall clock + GC deltas per span)"
      ~headers:
        [ "span"; "calls"; "wall ms"; "wall%"; "p50 us"; "p99 us";
          "minor words"; "promoted"; "major"; "minor gc"; "major gc" ]
  in
  List.iter
    (function
      | Row_span (s : Scd_obs.Prof.span) ->
        Scd_util.Table.add_row t
          [ String.make (2 * s.depth) ' ' ^ s.name;
            string_of_int s.calls;
            Printf.sprintf "%.3f" (float_of_int s.wall_ns /. 1e6);
            pct s.wall_ns;
            string_of_int (Scd_obs.Histogram.quantile s.latency 0.5);
            string_of_int (Scd_obs.Histogram.quantile s.latency 0.99);
            Printf.sprintf "%.0f" s.gc.minor_words;
            Printf.sprintf "%.0f" s.gc.promoted_words;
            Printf.sprintf "%.0f" s.gc.major_words;
            string_of_int s.gc.minor_collections;
            string_of_int s.gc.major_collections ]
      | Row_unattributed ((s : Scd_obs.Prof.span), wall, minor) ->
        Scd_util.Table.add_row t
          [ String.make (2 * (s.depth + 1)) ' ' ^ "(unattributed)";
            "-";
            Printf.sprintf "%.3f" (float_of_int wall /. 1e6);
            pct wall; "-"; "-";
            Printf.sprintf "%.0f" minor;
            "-"; "-"; "-"; "-" ])
    (prof_rows profile);
  t

(* The per-root coverage summary behind the ">=95% attributed" acceptance
   check: how much of the "run" span's wall time and minor allocation is
   claimed by its named children, with the remainder stated explicitly. *)
let prof_coverage profile =
  Option.map
    (fun (root : Scd_obs.Prof.span) ->
      let aw, am = Scd_obs.Prof.attributed profile root in
      (root, aw, am))
    (Scd_obs.Prof.find profile "run")

let prof_json profile ~workload ~vm ~scheme ~machine ~scale ~runs =
  let open Scd_obs in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema_version\": 1,\n";
  Buffer.add_string b
    (Printf.sprintf "  \"workload\": %s,\n  \"vm\": %s,\n  \"scheme\": %s,\n"
       (Json.string workload)
       (Json.string (Scd_cosim.Frontend.name vm))
       (Json.string (Scd_core.Scheme.name scheme)));
  Buffer.add_string b
    (Printf.sprintf "  \"machine\": %s,\n  \"scale\": %s,\n  \"runs\": %d,\n"
       (Json.string machine.Scd_uarch.Config.name)
       (Json.string (Scd_workloads.Workload.scale_name scale))
       runs);
  Buffer.add_string b
    (Printf.sprintf "  \"host\": %s,\n" (host_info_json ()));
  (match prof_coverage profile with
   | None -> ()
   | Some (root, aw, am) ->
     Buffer.add_string b
       (Printf.sprintf
          "  \"coverage\": { \"wall_ns\": %d, \"attributed_wall_ns\": %d, \
           \"minor_words\": %s, \"attributed_minor_words\": %s },\n"
          root.wall_ns aw
          (Json.number root.gc.minor_words)
          (Json.number am)));
  Buffer.add_string b
    (Printf.sprintf "  \"dropped_events\": %d,\n"
       (Prof.dropped_events profile));
  Buffer.add_string b "  \"spans\": [";
  List.iteri
    (fun i (s : Prof.span) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"path\": %s, \"name\": %s, \"depth\": %d, \
            \"calls\": %d, \"wall_ns\": %d, \"p50_us\": %d, \"p99_us\": %d, \
            \"minor_words\": %s, \"promoted_words\": %s, \
            \"major_words\": %s, \"minor_collections\": %d, \
            \"major_collections\": %d, \"compactions\": %d }"
           (Json.string s.path) (Json.string s.name) s.depth s.calls s.wall_ns
           (Histogram.quantile s.latency 0.5)
           (Histogram.quantile s.latency 0.99)
           (Json.number s.gc.minor_words)
           (Json.number s.gc.promoted_words)
           (Json.number s.gc.major_words)
           s.gc.minor_collections s.gc.major_collections s.gc.compactions))
    (Prof.spans profile);
  if Prof.spans profile <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "]\n}\n";
  Buffer.contents b

let prof_chrome_trace profile =
  let tr = Scd_obs.Chrome_trace.create ~process_name:"scdsim host profiler" () in
  (* host timeline: microseconds since profile creation (the trace format's
     native unit — unlike `scdsim trace`, where "us" carries simulated
     cycles) *)
  Scd_obs.Prof.iter_events profile (fun (e : Scd_obs.Prof.event) ->
      Scd_obs.Chrome_trace.complete tr ~name:e.ev_path
        ~ts:(e.ev_start_ns / 1000) ~dur:(e.ev_dur_ns / 1000));
  Scd_obs.Chrome_trace.add_other tr ~key:"host" ~json:(host_info_json ());
  Scd_obs.Chrome_trace.add_other tr ~key:"timeline"
    ~json:"\"host microseconds (not simulated cycles)\"";
  Scd_obs.Chrome_trace.contents tr

let prof_cmd =
  let runs =
    Arg.(value & opt int 1
         & info [ "runs" ] ~docv:"N"
             ~doc:"Repeat the co-simulation N times under one profile \
                   (steadies the per-phase latency percentiles).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the profile as JSON.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event timeline of the host spans \
                   (chrome://tracing / Perfetto).")
  in
  let action workload vm scheme machine scale runs json out =
    if runs < 1 then `Error (false, "--runs must be at least 1")
    else
      match find_workload workload with
      | Error m -> `Error (false, m)
      | Ok w ->
        let source = Scd_workloads.Workload.source w scale in
        let config =
          { Scd_cosim.Driver.default_config with frontend = vm; scheme; machine }
        in
        let profile = Scd_obs.Prof.create () in
        let outcome =
          Scd_obs.Prof.activate profile;
          Fun.protect ~finally:Scd_obs.Prof.deactivate (fun () ->
              guest_errors (fun () ->
                  for _ = 1 to runs do
                    ignore
                      (Scd_obs.Prof.span "run" (fun () ->
                           Scd_cosim.Driver.run config ~source)
                        : Scd_cosim.Driver.result)
                  done))
        in
        (match outcome with
         | Error m -> `Error (false, m)
         | Ok () ->
           Printf.printf "workload          %s (%s scale, %s VM, %s)\n" w.name
             (Scd_workloads.Workload.scale_name scale)
             (Scd_cosim.Frontend.name vm)
             (Scd_core.Scheme.name scheme);
           Printf.printf "host              OCaml %s, %d-bit, %s, %d domains recommended\n"
             Sys.ocaml_version Sys.word_size Sys.os_type
             (Scd_util.Pool.default_jobs ());
           Printf.printf "runs              %d\n\n" runs;
           print_string (Scd_util.Table.render (prof_table profile));
           (match prof_coverage profile with
            | None -> ()
            | Some (root, aw, am) ->
              let pct part whole =
                if whole <= 0.0 then 100.0 else 100.0 *. part /. whole
              in
              Printf.printf
                "\ncoverage: %.1f%% of wall time attributed to named phases \
                 (%.3f ms unattributed),\n          %.1f%% of minor words \
                 (%.0f words unattributed)\n"
                (pct (float_of_int aw) (float_of_int root.wall_ns))
                (float_of_int (root.wall_ns - aw) /. 1e6)
                (pct am root.gc.minor_words)
                (root.gc.minor_words -. am));
           (if Scd_obs.Prof.dropped_events profile > 0 then
              Printf.printf "note: %d span events beyond the trace cap were dropped \
                             (aggregates are complete)\n"
                (Scd_obs.Prof.dropped_events profile));
           let write_validated path doc what =
             match Scd_obs.Json.validate doc with
             | Error m ->
               Error (Printf.sprintf "internal error: emitted %s is invalid: %s" what m)
             | Ok () ->
               write_file path doc;
               Printf.printf "\nwrote %s\n" path;
               Ok ()
           in
           let res =
             match json with
             | None -> Ok ()
             | Some path ->
               write_validated path
                 (prof_json profile ~workload ~vm ~scheme ~machine ~scale ~runs)
                 "profile JSON"
           in
           let res =
             match res with
             | Error _ as e -> e
             | Ok () -> (
               match out with
               | None -> Ok ()
               | Some path ->
                 write_validated path (prof_chrome_trace profile) "trace JSON")
           in
           (match res with Error m -> `Error (false, m) | Ok () -> `Ok ()))
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:"Profile the simulator process: wall time and GC deltas per \
             driver phase, with JSON and Chrome-trace export")
    Term.(ret (const action $ workload_pos $ vm_arg $ scheme_arg $ machine_arg
               $ scale_arg $ runs $ json $ out))

(* ------------------------------------------------------------------ *)
(* budget: compare a bench --json report against allocation budgets    *)
(* ------------------------------------------------------------------ *)

let budget_cmd =
  let report =
    Arg.(required & pos 0 (some non_dir_file) None
         & info [] ~docv:"REPORT" ~doc:"A bench --json report file.")
  in
  let action report =
    let ic = open_in_bin report in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Scd_obs.Budget.check_report contents with
    | Error m -> `Error (false, m)
    | Ok verdicts ->
      print_string (Scd_obs.Budget.render verdicts);
      if Scd_obs.Budget.ok verdicts then `Ok ()
      else
        `Error
          (false,
           "allocation budget exceeded (deliberate? update \
            Scd_obs.Budget.table in lib/obs/budget.ml)")
  in
  Cmd.v
    (Cmd.info "budget"
       ~doc:"Check a bench --json report against the checked-in allocation \
             budgets")
    Term.(ret (const action $ report))

(* ------------------------------------------------------------------ *)
(* exp                                                                 *)
(* ------------------------------------------------------------------ *)

let exp_cmd =
  let id =
    Arg.(value & pos 0 string "all"
         & info [] ~docv:"ID"
             ~doc:"Experiment id (fig2..fig11d, tab4, tab5, highend, abl-*) or 'all'.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use test-scale inputs (fast smoke).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of tables.") in
  let jobs =
    Arg.(value & opt int (Scd_util.Pool.default_jobs ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the sweep pool (1 = sequential). Output \
                   is byte-identical at any job count.")
  in
  let sample =
    Arg.(value & opt (some string) None
         & info [ "sample" ] ~docv:"DIR"
             ~doc:"Dump the interval time series behind every co-simulated \
                   cell of the selected experiments as CSV files into DIR \
                   (created if missing).")
  in
  let sample_interval =
    Arg.(value & opt int 10_000
         & info [ "sample-interval" ] ~docv:"N"
             ~doc:"Sampling interval (retired instructions) for --sample.")
  in
  let cache =
    Arg.(value
         & opt ~vopt:(Some Scd_experiments.Store.default_dir) (some string) None
         & info [ "cache" ] ~docv:"DIR"
             ~doc:"Persist every computed cell under DIR (default \
                   $(b,_scd_cache)) and reuse entries from earlier runs: a \
                   warm process re-runs no co-simulations. Entries \
                   self-invalidate when the result schema changes.")
  in
  let action id quick csv jobs sample sample_interval cache =
    if jobs < 1 then `Error (false, "--jobs must be at least 1")
    else if sample_interval <= 0 then
      `Error (false, "--sample-interval must be positive")
    else
      let selected =
        if id = "all" then Ok Scd_experiments.Registry.all
        else
          match Scd_experiments.Registry.find id with
          | Some e -> Ok [ e ]
          | None ->
            Error
              (Printf.sprintf "unknown experiment %S; try: %s" id
                 (String.concat ", " Scd_experiments.Registry.ids))
      in
      match selected with
      | Error m -> `Error (false, m)
      | Ok experiments ->
        (match sample with
         | None -> ()
         | Some dir ->
           if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
           Scd_experiments.Sweep.set_sample_dir ~interval:sample_interval
             (Some dir));
        (match cache with
         | None -> ()
         | Some dir ->
           Scd_experiments.Sweep.set_store
             (Some (Scd_experiments.Store.create dir)));
        Scd_util.Pool.with_pool ~jobs (fun pool ->
            List.iter
              (fun (r : Scd_experiments.Runner.rendered) -> print_string r.body)
              (Scd_experiments.Runner.run_all ~pool ~quick ~csv experiments));
        Scd_experiments.Sweep.set_store None;
        (match sample with
         | None -> ()
         | Some dir ->
           Scd_experiments.Sweep.set_sample_dir None;
           Printf.printf "time-series samples written to %s/\n" dir);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate a paper figure or table")
    Term.(ret (const action $ id $ quick $ csv $ jobs $ sample $ sample_interval
               $ cache))

(* ------------------------------------------------------------------ *)
(* cache: inspect / clear / verify the persistent sweep store          *)
(* ------------------------------------------------------------------ *)

let cache_cmd =
  let op =
    Arg.(value
         & pos 0 (enum [ ("stats", `Stats); ("clear", `Clear); ("verify", `Verify) ])
             `Stats
         & info [] ~docv:"OP" ~doc:"$(b,stats) (default), $(b,clear) or $(b,verify).")
  in
  let dir =
    Arg.(value & opt string Scd_experiments.Store.default_dir
         & info [ "cache"; "dir" ] ~docv:"DIR" ~doc:"Store directory.")
  in
  let action op dir =
    if (not (Sys.file_exists dir)) && op <> `Clear then
      `Error (false, Printf.sprintf "no cache directory at %s" dir)
    else if Sys.file_exists dir && not (Sys.is_directory dir) then
      `Error (false, Printf.sprintf "%s is not a directory" dir)
    else
      let store = Scd_experiments.Store.create dir in
      match op with
      | `Stats ->
        let entries = Scd_experiments.Store.entries store in
        let quarantined = Scd_experiments.Store.quarantined store in
        Printf.printf "cache directory  %s\n" dir;
        Printf.printf "entries          %d\n" (List.length entries);
        Printf.printf "payload bytes    %d\n"
          (Scd_experiments.Store.size_bytes store);
        Printf.printf "corrupt          %d quarantined\n"
          (List.length quarantined);
        Printf.printf "schema version   %d (format %d)\n"
          Scd_cosim.Result.schema_version
          Scd_experiments.Store.format_version;
        `Ok ()
      | `Clear ->
        Printf.printf "removed %d entries from %s\n"
          (Scd_experiments.Store.clear store)
          dir;
        `Ok ()
      | `Verify ->
        let ok, bad = Scd_experiments.Store.verify store in
        Printf.printf "%d entries decode cleanly\n" ok;
        (match bad with
         | [] -> `Ok ()
         | _ ->
           List.iter
             (fun (name, msg) -> Printf.printf "BAD %s: %s\n" name msg)
             bad;
           `Error (false, Printf.sprintf "%d corrupt entries" (List.length bad)))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect, clear or verify the persistent sweep cache")
    Term.(ret (const action $ op $ dir))

(* ------------------------------------------------------------------ *)
(* check: the differential dispatch checker                            *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let seeds =
    Arg.(value & opt int 25
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Random seeds per phase: N stress runs and N generated \
                   programs through the scheme x BTB-configuration matrix.")
  in
  let frontend =
    Arg.(value & opt_all string []
         & info [ "f"; "frontend" ] ~docv:"F"
             ~doc:"Check only this frontend (repeatable; default all \
                   registered frontends).")
  in
  let faults =
    Arg.(value & flag
         & info [ "faults" ]
             ~doc:"Also run the persistent-cache fault-injection suite \
                   (truncation, bit flips, deletion).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the verdict.")
  in
  let action seeds frontend faults quiet =
    if seeds <= 0 then `Error (false, "--seeds must be positive")
    else
      let unknown =
        List.filter (fun f -> Scd_cosim.Frontend.find f = None) frontend
      in
      if unknown <> [] then
        `Error
          (false,
           Printf.sprintf "unknown frontend(s): %s (registered: %s)"
             (String.concat ", " unknown)
             (String.concat ", " (Scd_cosim.Frontend.names ())))
      else begin
        let log = if quiet then fun _ -> () else print_endline in
        let report =
          Scd_check.Check.run ~log ~seeds
            ?frontends:(match frontend with [] -> None | fs -> Some fs)
            ~faults ()
        in
        print_endline (Scd_check.Check.summary report);
        if Scd_check.Check.ok report then `Ok ()
        else begin
          List.iter
            (fun (seed, source) ->
              Printf.printf "minimal reproducer for seed %Ld:\n%s\n" seed source)
            report.Scd_check.Check.minimized;
          `Error (false, "differential check found divergences")
        end
      end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differentially check dispatch schemes, BTB bookkeeping and the \
             sweep cache"
       ~man:
         [ `S Manpage.s_description;
           `P
             "Runs three deterministic phases: a BTB stress differential \
              against an independent reference model (replacement policy, \
              JTE priority, cap); seeded random Mina programs through every \
              dispatch scheme and a matrix of BTB configurations, asserting \
              identical VM output, retired bytecodes and architectural event \
              counts with the BTB invariant auditor installed; and, with \
              $(b,--faults), a cache corruption suite asserting warm results \
              stay byte-identical to cold ones. Diverging programs are \
              shrunk to minimal reproducers." ])
    Term.(ret (const action $ seeds $ frontend $ faults $ quiet))

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let action () =
    print_endline "workloads:";
    List.iter
      (fun (w : Scd_workloads.Workload.t) ->
        Printf.printf "  %-16s %s\n" w.name w.description)
      Scd_workloads.Registry.all;
    print_endline "experiments:";
    List.iter
      (fun (e : Scd_experiments.Experiment.t) ->
        Printf.printf "  %-8s %-14s %s\n" e.id e.paper e.title)
      Scd_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and experiments")
    Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* dispatch: the paper's Figure 1(b) vs Figure 4 as ERV32 listings     *)
(* ------------------------------------------------------------------ *)

let baseline_loop =
  {|# Canonical dispatch loop (paper Figure 1(b), Alpha -> ERV32).
  li    r3, 0x4000        # VM pc
  li    r4, 63            # opcode mask
main_loop:
  ldw   r9, 0(r3)         # fetch bytecode
  addi  r3, r3, 4         # bump virtual PC
  and   r2, r9, r4        # decode
  li    r1, 3
  bgeu  r2, r1, default   # bound check
  li    r7, 0x5000        # jump table base
  slli  r5, r2, 2
  add   r7, r7, r5        # target address calculation
  ldw   r6, 0(r7)         # jump table load
  jalr  r0, 0(r6)         # hard-to-predict indirect dispatch
handlers:
  halt
default:
  halt
|}

let scd_loop =
  {|# SCD dispatch loop (paper Figure 4): modified lines marked [SCD].
  li    r3, 0x4000
  li    r4, 63
  setmask r4              # [SCD] Rmask <- 63, once at startup
  jte.flush               # [SCD] start with no jump-table entries
main_loop:
  ldw.op r9, 0(r3)        # [SCD] fetch; Rop <- value & Rmask
  addi  r3, r3, 4
  bop                     # [SCD] fast path: JTE hit jumps to the handler
  and   r2, r9, r4        # slow path only: decode
  li    r1, 3
  bgeu  r2, r1, default   # slow path only: bound check
  li    r7, 0x5000
  slli  r5, r2, 2
  add   r7, r7, r5        # slow path only: target calculation
  ldw   r6, 0(r7)
  jru   r0, 0(r6)         # [SCD] dispatch + install the missing JTE
handlers:
  halt
default:
  halt
|}

let dispatch_cmd =
  let action () =
    List.iter
      (fun (title, source) ->
        print_endline title;
        print_string (Scd_isa.Disasm.dump_program (Scd_isa.Asm.assemble_exn source));
        print_newline ())
      [ ("=== baseline dispatch (Figure 1(b)) ===", baseline_loop);
        ("=== short-circuit dispatch (Figure 4) ===", scd_loop) ]
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:"Show the baseline and SCD dispatch loops as ERV32 listings")
    Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* assemble: source -> binary hex image                                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let assemble_cmd =
  let file =
    Arg.(required & pos 0 (some non_dir_file) None
         & info [] ~docv:"FILE" ~doc:"ERV32 assembly source.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Hex image file (default stdout).")
  in
  let action path output =
    match Scd_isa.Asm.assemble (read_file path) with
    | Error { line; message } ->
      `Error (false, Printf.sprintf "line %d: %s" line message)
    | Ok program ->
      let hex = Scd_isa.Image.to_hex (Scd_isa.Image.of_program program) in
      (match output with
       | None -> print_string hex
       | Some out ->
         let oc = open_out out in
         output_string oc hex;
         close_out oc;
         Printf.printf "wrote %d words to %s\n" (Array.length program.instrs) out);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "assemble" ~doc:"Assemble ERV32 source into a binary hex image")
    Term.(ret (const action $ file $ output))

(* ------------------------------------------------------------------ *)
(* exec: ERV32 assembly on the functional executor                     *)
(* ------------------------------------------------------------------ *)

let exec_cmd =
  let file =
    Arg.(required & pos 0 (some non_dir_file) None
         & info [] ~docv:"FILE" ~doc:"ERV32 assembly file.")
  in
  let disassemble =
    Arg.(value & flag & info [ "disasm" ] ~doc:"Print the assembled program.")
  in
  let action path disassemble =
    let source = read_file path in
    let assembled =
      if Filename.check_suffix path ".hex" then
        match Scd_isa.Image.of_hex source with
        | Error m -> Error m
        | Ok image -> Scd_isa.Image.to_program image
      else
        match Scd_isa.Asm.assemble source with
        | Error { line; message } ->
          Error (Printf.sprintf "line %d: %s" line message)
        | Ok p -> Ok p
    in
    match assembled with
    | Error m -> `Error (false, m)
    | Ok program ->
      if disassemble then print_string (Scd_isa.Disasm.dump_program program);
      let machine = Scd_isa.Exec.create program in
      (match Scd_isa.Exec.run machine with
       | Halted ->
         Printf.printf "halted after %d instructions\n"
           (Scd_isa.Exec.instructions_retired machine);
         Printf.printf "r1=%d r2=%d r10=%d\n" (Scd_isa.Exec.reg machine 1)
           (Scd_isa.Exec.reg machine 2) (Scd_isa.Exec.reg machine 10);
         `Ok ()
       | Step_limit -> `Error (false, "step limit exceeded")
       | Decode_fault { pc } -> `Error (false, Printf.sprintf "fetch fault at 0x%x" pc))
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Assemble and run an ERV32 program (functional model)")
    Term.(ret (const action $ file $ disassemble))

let () =
  let doc = "Short-Circuit Dispatch (ISCA 2016) reproduction toolkit" in
  let info = Cmd.info "scdsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; trace_cmd; prof_cmd; budget_cmd; exp_cmd; cache_cmd;
            check_cmd; list_cmd; dispatch_cmd;
            assemble_cmd; exec_cmd ]))
