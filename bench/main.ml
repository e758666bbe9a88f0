(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (the same rows/series the paper reports), then — with
   [--micro] — runs bechamel microbenchmarks of the simulator kernels.

     dune exec bench/main.exe                 # all experiments, full scale
     dune exec bench/main.exe -- --quick      # test-scale smoke
     dune exec bench/main.exe -- --only fig7,tab4
     dune exec bench/main.exe -- --jobs 4     # pooled parallel regeneration
     dune exec bench/main.exe -- --micro      # kernel microbenchmarks only
     dune exec bench/main.exe -- --micro --check-budgets   # allocation gate
     dune exec bench/main.exe -- --csv        # machine-readable output
     dune exec bench/main.exe -- --json BENCH_2026-08-06.json
     dune exec bench/main.exe -- --cache      # persist cells in _scd_cache/

   Experiments run on a Scd_util.Pool domain pool ([--jobs N]; the default
   is Domain.recommended_domain_count, and [--jobs 1] is the exact legacy
   sequential path). Tables are rendered per experiment into strings and
   printed in selection order, so output is byte-identical at any job
   count. [--json FILE] records per-experiment wall-clock (and [--micro]
   kernel results) for cross-PR perf trajectories. *)

type options = {
  quick : bool;
  micro : bool;
  micro_quota : float;  (* seconds of samples per kernel per pass *)
  check_budgets : bool;
  budget_tolerance : float option;  (* None: Scd_obs.Budget.default_tolerance *)
  csv : bool;
  only : string list option;
  jobs : int;
  json : string option;
  cache : string option;
}

let parse_args () =
  let quick = ref false and micro = ref false and csv = ref false in
  let micro_quota = ref 1.0 in
  let check_budgets = ref false in
  let budget_tolerance = ref None in
  let only = ref None in
  let jobs = ref (Scd_util.Pool.default_jobs ()) in
  let json = ref None in
  let cache = ref None in
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s\n" m; exit 2) fmt in
  let operand flag = function
    | v :: rest when not (String.length v > 0 && v.[0] = '-') -> (v, rest)
    | _ -> fail "%s requires an argument" flag
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; go rest
    | "--micro" :: rest -> micro := true; go rest
    | "--micro-quota" :: rest ->
      let v, rest = operand "--micro-quota" rest in
      (match float_of_string_opt v with
       | Some q when q > 0.0 -> micro_quota := q
       | Some _ | None ->
         fail "--micro-quota requires a positive number of seconds, got %S" v);
      go rest
    | "--check-budgets" :: rest -> check_budgets := true; go rest
    | "--budget-tolerance" :: rest ->
      let v, rest = operand "--budget-tolerance" rest in
      (match float_of_string_opt v with
       | Some t when t >= 0.0 -> budget_tolerance := Some t
       | Some _ | None ->
         fail "--budget-tolerance requires a non-negative fraction, got %S" v);
      go rest
    | "--csv" :: rest -> csv := true; go rest
    | "--only" :: rest ->
      let ids, rest = operand "--only" rest in
      only := Some (String.split_on_char ',' ids);
      go rest
    | "--jobs" :: rest ->
      let n, rest = operand "--jobs" rest in
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | Some _ | None -> fail "--jobs requires a positive integer, got %S" n);
      go rest
    | "--json" :: rest ->
      let file, rest = operand "--json" rest in
      json := Some file;
      go rest
    (* the operand is optional: bare --cache means the default directory *)
    | "--cache" :: v :: rest when not (String.length v > 0 && v.[0] = '-') ->
      cache := Some v;
      go rest
    | "--cache" :: rest ->
      cache := Some Scd_experiments.Store.default_dir;
      go rest
    | arg :: _ -> fail "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  if !check_budgets && not !micro then
    fail "--check-budgets compares microbenchmark results: add --micro";
  { quick = !quick; micro = !micro; micro_quota = !micro_quota;
    check_budgets = !check_budgets; budget_tolerance = !budget_tolerance;
    csv = !csv; only = !only; jobs = !jobs; json = !json; cache = !cache }

(* ------------------------------------------------------------------ *)
(* Experiment regeneration                                             *)
(* ------------------------------------------------------------------ *)

let select_experiments only =
  match only with
  | None -> Scd_experiments.Registry.all
  | Some ids ->
    let unknown =
      List.filter (fun id -> Scd_experiments.Registry.find id = None) ids
    in
    if unknown <> [] then begin
      Printf.eprintf "unknown experiment%s: %s\nvalid ids: %s\n"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat ", " Scd_experiments.Registry.ids);
      exit 2
    end;
    List.filter_map Scd_experiments.Registry.find ids

let run_experiments ~quick ~csv ~only ~pool =
  let selected = select_experiments only in
  let t0 = Unix.gettimeofday () in
  let rendered = Scd_experiments.Runner.run_all ~pool ~quick ~csv selected in
  List.iter
    (fun (r : Scd_experiments.Runner.rendered) ->
      let e = r.experiment in
      Printf.printf "### %s — %s (%s)\n\n" e.paper e.title e.id;
      print_string r.body;
      Printf.printf "(regenerated in %.1fs)\n\n%!" r.seconds)
    rendered;
  (rendered, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the simulator kernels                   *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  (* pipeline throughput on a plain instruction stream: 1000 single plain
     cells on a tape filled once, outside the staged closure, and drained
     through consume_tape on every run. The pipeline lives outside the
     closure too, so the run measures steady-state consumption only, not
     per-run setup. With the default Probe.null (one physical-equality
     check per instruction) the drain must allocate nothing *)
  let plain_tape = Scd_isa.Event.tape_create ~capacity:1000 () in
  for i = 0 to 999 do
    Scd_isa.Event.tape_push plain_tape ~pc:(0x1000 + (4 * (i land 255)))
      ~flags:Scd_isa.Event.tag_plain ~arg1:0 ~arg2:(-1)
  done;
  let tape_micro name probe =
    let p = Scd_uarch.Pipeline.create Scd_uarch.Config.simulator in
    Scd_uarch.Pipeline.set_probe p probe;
    Test.make ~name
      (Staged.stage (fun () -> Scd_uarch.Pipeline.consume_tape p plain_tape))
  in
  let pipeline_consume_tape =
    tape_micro "pipeline-consume-tape-1k" Scd_obs.Probe.null
  in
  (* and the enabled-path cost: a counting retire hook on every instruction *)
  let pipeline_tape_probe_on =
    let retired = ref 0 in
    tape_micro "pipeline-tape-probe-on-1k"
      (Scd_obs.Probe.create ~on_retire:(fun () -> incr retired) ())
  in
  let fib10 =
    "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(10))"
  in
  (* the same drain over every cell kind the driver emits: the first
     batches of a fib10 co-simulation, ~1000 cells (mem, cond, jump,
     ind_jump, call/return and run cells), captured once through the tape
     trap. Plain cells reach neither the memory arm nor the D-TLB and
     D-cache, nor any branch arm; these do, and must not allocate
     either *)
  let mixed_tape = Scd_isa.Event.tape_create ~capacity:1024 () in
  ignore
    (Scd_cosim.Driver.run
       ~tape_trap:(fun tape ->
         if Scd_isa.Event.tape_cells mixed_tape < 1000 then
           ignore
             (Scd_isa.Event.tape_blit mixed_tape
                (Scd_isa.Event.tape_snapshot tape ~from:0)
               : int))
       Scd_cosim.Driver.default_config ~source:fib10);
  let pipeline_consume_mixed =
    let p = Scd_uarch.Pipeline.create Scd_uarch.Config.simulator in
    Test.make ~name:"pipeline-consume-mixed-1k"
      (Staged.stage (fun () -> Scd_uarch.Pipeline.consume_tape p mixed_tape))
  in
  let btb_ops =
    Test.make ~name:"btb-lookup-insert-1k"
      (Staged.stage (fun () ->
           let b =
             Scd_uarch.Btb.create ~entries:256 ~ways:2
               ~replacement:Scd_uarch.Btb.Round_robin ()
           in
           for i = 0 to 999 do
             let key = (i land 63) lsl 2 in
             (match Scd_uarch.Btb.lookup b ~jte:true ~key with
              | Some _ -> ()
              | None -> Scd_uarch.Btb.insert b ~jte:true ~key ~target:i)
           done))
  in
  let engine_bop =
    Test.make ~name:"engine-bop-1k"
      (Staged.stage (fun () ->
           let btb =
             Scd_uarch.Btb.create ~entries:256 ~ways:2
               ~replacement:Scd_uarch.Btb.Lru ()
           in
           let e = Scd_core.Engine.create btb in
           for i = 0 to 999 do
             let opcode = i land 31 in
             match Scd_core.Engine.bop e ~opcode with
             | Scd_core.Engine.Hit _ -> ()
             | Scd_core.Engine.Miss ->
               Scd_core.Engine.jru e ~opcode:(Some opcode) ~target:(0x1000 + opcode)
           done))
  in
  let fib_program = Scd_rvm.Compiler.compile_string
      "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(12))"
  in
  (* the VM lives outside the staged closure and is [reset] per run, so the
     micro measures steady-state interpretation, not per-run setup (the
     pre-reuse figures paid ~130k/220k minor words of construction) *)
  let rvm_interp =
    let vm = Scd_rvm.Vm.create fib_program in
    Test.make ~name:"rvm-fib12"
      (Staged.stage (fun () ->
           Scd_rvm.Vm.reset vm;
           Scd_rvm.Vm.run vm))
  in
  let svm_program = Scd_svm.Compiler.compile_string
      "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(12))"
  in
  let svm_interp =
    let vm = Scd_svm.Vm.create svm_program in
    Test.make ~name:"svm-fib12"
      (Staged.stage (fun () ->
           Scd_svm.Vm.reset vm;
           Scd_svm.Vm.run vm))
  in
  let direction =
    Test.make ~name:"tournament-predict-update-1k"
      (Staged.stage (fun () ->
           let p =
             Scd_uarch.Direction.create
               (Scd_uarch.Direction.Tournament
                  { global_entries = 512; local_history_entries = 128;
                    local_pattern_entries = 512; chooser_entries = 512 })
           in
           for i = 0 to 999 do
             let pc = 0x4000 + ((i land 15) * 4) in
             ignore (Scd_uarch.Direction.predict p ~pc);
             Scd_uarch.Direction.update p ~pc ~taken:(i land 3 <> 0)
           done))
  in
  let asm_exec =
    let program =
      Scd_isa.Asm.assemble_exn
        {|
          addi r1, r0, 200
          addi r2, r0, 0
        loop:
          add  r2, r2, r1
          addi r1, r1, -1
          bne  r1, r0, loop
          halt
        |}
    in
    Test.make ~name:"erv32-exec-200-iter"
      (Staged.stage (fun () ->
           let m = Scd_isa.Exec.create program in
           ignore (Scd_isa.Exec.run m)))
  in
  (* the disabled host-profiler span: with no active profile the probe is
     one ref load and match, so minor allocation must stay at zero — the
     Prof counterpart of pipeline-consume-tape *)
  let noop = fun () -> () in
  let prof_span_off =
    Test.make ~name:"prof-span-off-1k"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             Scd_obs.Prof.span "micro" noop
           done))
  in
  (* and the enabled-path cost: clock + Gc.quick_stat samples per span.
     The profile is activated inside the staged closure (bechamel runs
     kernels sequentially, so a profile left active would leak into every
     later micro); ~max_events:0 keeps the event log from growing across
     the thousands of timed runs. *)
  let prof_span_on =
    let profile = Scd_obs.Prof.create ~max_events:0 () in
    Test.make ~name:"prof-span-on-1k"
      (Staged.stage (fun () ->
           Scd_obs.Prof.activate profile;
           for _ = 1 to 1000 do
             Scd_obs.Prof.span "micro" noop
           done;
           Scd_obs.Prof.deactivate ()))
  in
  (* one full co-simulation per dispatch scheme, so the perf trajectory
     (and the allocation budgets) track each scheme's end-to-end cost —
     the ROADMAP's allocation-free-cosim work lands scheme by scheme *)
  let cosim_micro scheme suffix =
    Test.make ~name:("cosim-fib10-" ^ suffix)
      (Staged.stage (fun () ->
           ignore
             (Scd_cosim.Driver.run
                { Scd_cosim.Driver.default_config with scheme }
                ~source:fib10)))
  in
  [ pipeline_consume_tape; pipeline_tape_probe_on; pipeline_consume_mixed;
    prof_span_off;
    prof_span_on; btb_ops;
    engine_bop; rvm_interp; svm_interp; direction; asm_exec;
    cosim_micro Scd_core.Scheme.Baseline "baseline";
    cosim_micro Scd_core.Scheme.Jump_threading "jte";
    cosim_micro Scd_core.Scheme.Vbbi "vbbi";
    cosim_micro Scd_core.Scheme.Scd "scd" ]

type micro_result = {
  name : string;
  ns_per_run : float;
  minor_words_per_run : float;
  major_words_per_run : float;
  promoted_words_per_run : float;
}

let run_micro ~quota =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  print_endline
    "== Microbenchmarks (bechamel: monotonic clock, GC allocation counters) ==";
  let results =
    List.concat_map
      (fun test ->
        (* Two measurement passes per kernel: bechamel loads instances in
           order and unloads in reverse, so with the clock and the GC
           counters in one pass the clock window brackets the counter
           sampling and ns/run is inflated by the Gc.minor_words calls.
           Timing runs alone; the allocation counters share a second pass
           (words are exact per run, so they cannot contaminate each
           other). *)
        let time_raw =
          Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
        in
        let alloc_raw =
          Benchmark.all cfg
            Toolkit.Instance.[ minor_allocated; major_allocated; promoted ]
            test
        in
        let time = Analyze.all ols Toolkit.Instance.monotonic_clock time_raw in
        let minor = Analyze.all ols Toolkit.Instance.minor_allocated alloc_raw in
        let major = Analyze.all ols Toolkit.Instance.major_allocated alloc_raw in
        let promoted = Analyze.all ols Toolkit.Instance.promoted alloc_raw in
        let estimate tbl name =
          match Hashtbl.find_opt tbl name with
          | Some r -> (
            match Analyze.OLS.estimates r with
            | Some [ v ] -> v
            | _ -> Float.nan)
          | None -> Float.nan
        in
        let names =
          Hashtbl.fold (fun name _ acc -> name :: acc) time []
          |> List.sort String.compare
        in
        List.map
          (fun name ->
            { name; ns_per_run = estimate time name;
              minor_words_per_run = estimate minor name;
              major_words_per_run = estimate major name;
              promoted_words_per_run = estimate promoted name })
          names)
      (micro_tests ())
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-32s %12.1f ns/run %12.1f minor words/run %10.1f major %10.1f promoted\n"
        r.name r.ns_per_run r.minor_words_per_run r.major_words_per_run
        r.promoted_words_per_run)
    results;
  print_newline ();
  results

(* ------------------------------------------------------------------ *)
(* Allocation-budget gate (--check-budgets)                            *)
(* ------------------------------------------------------------------ *)

let check_budgets ~tolerance micro =
  let measured =
    List.map (fun r -> (r.name, r.minor_words_per_run)) micro
  in
  let verdicts = Scd_obs.Budget.check_measured ?tolerance measured in
  print_endline "== Allocation budgets (minor words per run) ==";
  Printf.printf "%-32s %12s %12s %12s  %s\n" "kernel" "budget" "limit"
    "measured" "status";
  List.iter
    (fun (v : Scd_obs.Budget.verdict) ->
      Printf.printf "%-32s %12.1f %12.1f %12s  %s\n" v.entry.name
        v.entry.minor_words_per_run v.limit
        (match v.measured with
         | None -> "-"
         | Some m -> Printf.sprintf "%.1f" m)
        (Scd_obs.Budget.status_name v.status))
    verdicts;
  print_newline ();
  let ok = Scd_obs.Budget.ok verdicts in
  if not ok then
    prerr_endline
      "allocation budget exceeded: if the regression is deliberate, \
       re-measure and update Scd_obs.Budget.table (lib/obs/budget.ml)";
  ok

(* ------------------------------------------------------------------ *)
(* JSON perf trajectory (hand-rolled writer: no JSON dependency)       *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

(* Bump when the shape of the --json document changes so downstream
   trajectory tooling can dispatch on it. Version history:
   1 (implicit, PR 1): date/jobs/scale/experiments/total_seconds/micro;
   2: added the schema_version field itself;
   3: added the cache object (dir/hits/misses/stores, null without --cache);
   4: added cache.corrupt (loads that quarantined a corrupt file);
   5: added the host object (ocaml/word_size/os_type/recommended_domains —
      allocation counts are only comparable across runs on the same word
      size and runtime) and per-micro major_words_per_run /
      promoted_words_per_run. *)
let json_schema_version = 5

let write_json path ~(opts : options) ~experiments ~total_seconds ~micro ~store =
  let tm = Unix.localtime (Unix.time ()) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema_version\": %d,\n" json_schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"date\": \"%04d-%02d-%02dT%02d:%02d:%02d\",\n"
       (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"host\": { \"ocaml\": \"%s\", \"word_size\": %d, \
        \"os_type\": \"%s\", \"recommended_domains\": %d },\n"
       (json_escape Sys.ocaml_version) Sys.word_size
       (json_escape Sys.os_type)
       (Scd_util.Pool.default_jobs ()));
  (* recommended_domains predates the host object; kept top-level too so
     schema<5 consumers keep working *)
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs\": %d,\n  \"recommended_domains\": %d,\n"
       opts.jobs (Scd_util.Pool.default_jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"scale\": \"%s\",\n"
       (if opts.quick then "quick" else "full"));
  Buffer.add_string buf "  \"experiments\": [";
  List.iteri
    (fun i (r : Scd_experiments.Runner.rendered) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"id\": \"%s\", \"seconds\": %s }"
           (json_escape r.experiment.id) (json_float r.seconds)))
    experiments;
  if experiments <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"total_seconds\": %s,\n" (json_float total_seconds));
  (match store with
   | None -> Buffer.add_string buf "  \"cache\": null,\n"
   | Some s ->
     Buffer.add_string buf
       (Printf.sprintf
          "  \"cache\": { \"dir\": \"%s\", \"hits\": %d, \"misses\": %d, \
           \"stores\": %d, \"corrupt\": %d },\n"
          (json_escape (Scd_experiments.Store.dir s))
          (Scd_experiments.Store.hits s)
          (Scd_experiments.Store.misses s)
          (Scd_experiments.Store.stores s)
          (Scd_experiments.Store.corrupt s)));
  Buffer.add_string buf "  \"micro\": [";
  List.iteri
    (fun i (r : micro_result) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"ns_per_run\": %s, \
            \"minor_words_per_run\": %s, \"major_words_per_run\": %s, \
            \"promoted_words_per_run\": %s }"
           (json_escape r.name) (json_float r.ns_per_run)
           (json_float r.minor_words_per_run)
           (json_float r.major_words_per_run)
           (json_float r.promoted_words_per_run)))
    micro;
  if micro <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let opts = parse_args () in
  (* fail on an unwritable --json path before minutes of simulation *)
  (match opts.json with
   | None -> ()
   | Some path -> (
     try close_out (open_out path)
     with Sys_error m ->
       Printf.eprintf "--json: cannot write %s (%s)\n" path m;
       exit 2));
  let micro = if opts.micro then run_micro ~quota:opts.micro_quota else [] in
  let store = Option.map Scd_experiments.Store.create opts.cache in
  Scd_experiments.Sweep.set_store store;
  (* --micro alone keeps its legacy microbenchmark-only behaviour;
     --micro combined with --only runs both, e.g. for one BENCH json *)
  let rendered, total_seconds =
    if opts.micro && opts.only = None then ([], Float.nan)
    else begin
      Printf.printf
        "Short-Circuit Dispatch (ISCA 2016) — evaluation regeneration harness\n";
      Printf.printf "scale: %s  jobs: %d\n\n%!"
        (if opts.quick then "quick (test inputs)" else "full")
        opts.jobs;
      let rendered, total_seconds =
        Scd_util.Pool.with_pool ~jobs:opts.jobs (fun pool ->
            run_experiments ~quick:opts.quick ~csv:opts.csv ~only:opts.only
              ~pool)
      in
      Printf.printf "total wall-clock: %.1fs (%d experiments, %d jobs)\n%!"
        total_seconds (List.length rendered) opts.jobs;
      (match store with
       | None -> ()
       | Some s ->
         Printf.printf "cache %s: %d hits, %d misses, %d stores, %d corrupt\n%!"
           (Scd_experiments.Store.dir s)
           (Scd_experiments.Store.hits s)
           (Scd_experiments.Store.misses s)
           (Scd_experiments.Store.stores s)
           (Scd_experiments.Store.corrupt s));
      (rendered, total_seconds)
    end
  in
  (match opts.json with
   | None -> ()
   | Some path ->
     write_json path ~opts ~experiments:rendered ~total_seconds ~micro ~store);
  Scd_experiments.Sweep.set_store None;
  (* The budget gate runs last so a failing run still writes its --json
     report (the evidence for updating the table). *)
  if opts.check_budgets && not (check_budgets ~tolerance:opts.budget_tolerance micro)
  then exit 1
