(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (the same rows/series the paper reports), then — with
   [--micro] — runs bechamel microbenchmarks of the simulator kernels.

     dune exec bench/main.exe                 # all experiments, full scale
     dune exec bench/main.exe -- --quick      # test-scale smoke
     dune exec bench/main.exe -- --only fig7,tab4
     dune exec bench/main.exe -- --jobs 4     # pooled parallel regeneration
     dune exec bench/main.exe -- --micro      # kernel microbenchmarks only
     dune exec bench/main.exe -- --check-budgets   # exact allocation gate
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
  check_budgets : bool;
  csv : bool;
  only : string list option;
  jobs : int;
  json : string option;
  cache : string option;
}

let parse_args () =
  let quick = ref false and micro = ref false and csv = ref false in
  let check_budgets = ref false in
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
    | "--check-budgets" :: rest -> check_budgets := true; go rest
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
  { quick = !quick; micro = !micro; check_budgets = !check_budgets;
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

(* Each kernel is a named closure: bechamel times it under --micro, and
   its allocation is counted over direct calls (see minor_words_per_run). *)
let micro_kernels () =
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
    (name, fun () -> Scd_uarch.Pipeline.consume_tape p plain_tape)
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
    ( "pipeline-consume-mixed-1k",
      fun () -> Scd_uarch.Pipeline.consume_tape p mixed_tape )
  in
  let btb_ops =
    ( "btb-lookup-insert-1k",
      fun () ->
        let b =
          Scd_uarch.Btb.create ~entries:256 ~ways:2
            ~replacement:Scd_uarch.Btb.Round_robin ()
        in
        for i = 0 to 999 do
          let key = (i land 63) lsl 2 in
          if Scd_uarch.Btb.lookup_target b ~jte:true ~key = Scd_uarch.Btb.no_target
          then Scd_uarch.Btb.insert b ~jte:true ~key ~target:i
        done )
  in
  let engine_bop =
    ( "engine-bop-1k",
      fun () ->
        let btb =
          Scd_uarch.Btb.create ~entries:256 ~ways:2
            ~replacement:Scd_uarch.Btb.Lru ()
        in
        let e = Scd_core.Engine.create btb in
        for i = 0 to 999 do
          let opcode = i land 31 in
          if
            Scd_core.Engine.bop_target e ~table:0 ~opcode
            = Scd_core.Engine.no_target
          then Scd_core.Engine.jru_code e ~table:0 ~opcode ~target:(0x1000 + opcode)
        done )
  in
  let fib_program = Scd_rvm.Compiler.compile_string
      "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(12))"
  in
  (* the VM lives outside the staged closure and is [reset] per run, so the
     micro measures steady-state interpretation, not per-run setup (the
     pre-reuse figures paid ~130k/220k minor words of construction) *)
  let rvm_interp =
    let vm = Scd_rvm.Vm.create fib_program in
    ( "rvm-fib12",
      fun () ->
        Scd_rvm.Vm.reset vm;
        Scd_rvm.Vm.run vm )
  in
  let svm_program = Scd_svm.Compiler.compile_string
      "function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end print(fib(12))"
  in
  let svm_interp =
    let vm = Scd_svm.Vm.create svm_program in
    ( "svm-fib12",
      fun () ->
        Scd_svm.Vm.reset vm;
        Scd_svm.Vm.run vm )
  in
  let direction =
    ( "tournament-predict-update-1k",
      fun () ->
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
        done )
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
    ( "erv32-exec-200-iter",
      fun () ->
        let m = Scd_isa.Exec.create program in
        ignore (Scd_isa.Exec.run m) )
  in
  (* the disabled host-profiler span: with no active profile the probe is
     one ref load and match, so minor allocation must stay at zero — the
     Prof counterpart of pipeline-consume-tape *)
  let noop = fun () -> () in
  let prof_span_off =
    ( "prof-span-off-1k",
      fun () ->
        for _ = 1 to 1000 do
          Scd_obs.Prof.span "micro" noop
        done )
  in
  (* and the enabled-path cost: clock + Gc.quick_stat samples per span.
     The profile is activated inside the kernel (kernels run one after
     another, so a profile left active would leak into every later micro);
     ~max_events:0 keeps the event log from growing across the thousands
     of timed runs. *)
  let prof_span_on =
    let profile = Scd_obs.Prof.create ~max_events:0 () in
    ( "prof-span-on-1k",
      fun () ->
        Scd_obs.Prof.activate profile;
        for _ = 1 to 1000 do
          Scd_obs.Prof.span "micro" noop
        done;
        Scd_obs.Prof.deactivate () )
  in
  (* one full co-simulation per dispatch scheme, so the perf trajectory
     (and the allocation budgets) track each scheme's end-to-end cost —
     the ROADMAP's allocation-free-cosim work lands scheme by scheme *)
  let cosim_micro scheme suffix =
    ( "cosim-fib10-" ^ suffix,
      fun () ->
        ignore
          (Scd_cosim.Driver.run
             { Scd_cosim.Driver.default_config with scheme }
             ~source:fib10) )
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

(* The minor words one call of [f] allocates: the Gc.minor_words delta
   over [alloc_runs] direct calls, after one warm-up call that pays
   first-call setup (the driver's process-wide template cache, for one).
   Every later call allocates the same, so this is an exact count, where
   bechamel's per-run estimate comes from counters that only advance at
   minor collections. *)
let alloc_runs = 10

let minor_words_per_run f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_runs do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int alloc_runs

let run_micro kernels =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  print_endline
    "== Microbenchmarks (bechamel: monotonic clock, GC allocation counters; \
     minor words counted exactly) ==";
  let results =
    List.map
      (fun (name, f) ->
        let test = Test.make ~name (Staged.stage f) in
        (* Two measurement passes per kernel: bechamel loads instances in
           order and unloads in reverse, so with the clock and the GC
           counters in one pass the clock window brackets the counter
           sampling and ns/run is inflated by the Gc counter calls. *)
        let time_raw =
          Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
        in
        let alloc_raw =
          Benchmark.all cfg Toolkit.Instance.[ major_allocated; promoted ] test
        in
        let estimate instance raw =
          match Hashtbl.find_opt (Analyze.all ols instance raw) name with
          | Some r -> (
            match Analyze.OLS.estimates r with
            | Some [ v ] -> v
            | _ -> Float.nan)
          | None -> Float.nan
        in
        { name; ns_per_run = estimate Toolkit.Instance.monotonic_clock time_raw;
          minor_words_per_run = minor_words_per_run f;
          major_words_per_run = estimate Toolkit.Instance.major_allocated alloc_raw;
          promoted_words_per_run = estimate Toolkit.Instance.promoted alloc_raw })
      kernels
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

let check_budgets kernels =
  let verdicts =
    Scd_obs.Budget.check_measured
      (List.map (fun (name, f) -> (name, minor_words_per_run f)) kernels)
  in
  print_endline "== Allocation budgets (minor words per run, exact) ==";
  print_string (Scd_obs.Budget.render verdicts);
  print_newline ();
  let ok = Scd_obs.Budget.ok verdicts in
  if not ok then
    prerr_endline
      "allocation budget exceeded: if the regression is deliberate, \
       update Scd_obs.Budget.table (lib/obs/budget.ml) to the measured count";
  ok

(* ------------------------------------------------------------------ *)
(* JSON perf trajectory                                                *)
(* ------------------------------------------------------------------ *)

(* Bump when the shape of the --json document changes so downstream
   trajectory tooling can dispatch on it. Version history:
   1 (implicit, PR 1): date/jobs/scale/experiments/total_seconds/micro;
   2: added the schema_version field itself;
   3: added the cache object (dir/hits/misses/stores, null without --cache);
   4: added cache.corrupt (loads that quarantined a corrupt file);
   5: added the host object (ocaml/word_size/os_type/recommended_domains —
      allocation counts are only comparable across runs on the same word
      size and runtime) and per-micro major_words_per_run /
      promoted_words_per_run;
   6: minor_words_per_run is the exact count over direct calls, no longer
      bechamel's estimate. *)
let json_schema_version = 6

let write_json path ~(opts : options) ~experiments ~total_seconds ~micro ~store =
  let open Scd_obs.Json in
  let tm = Unix.localtime (Unix.time ()) in
  let experiment (r : Scd_experiments.Runner.rendered) =
    Object [ ("id", String r.experiment.id); ("seconds", Number r.seconds) ]
  in
  let cache s =
    let module Store = Scd_experiments.Store in
    Object
      [ ("dir", String (Store.dir s)); ("hits", int (Store.hits s));
        ("misses", int (Store.misses s)); ("stores", int (Store.stores s));
        ("corrupt", int (Store.corrupt s)) ]
  in
  let micro_result r =
    Object
      [ ("name", String r.name); ("ns_per_run", Number r.ns_per_run);
        ("minor_words_per_run", Number r.minor_words_per_run);
        ("major_words_per_run", Number r.major_words_per_run);
        ("promoted_words_per_run", Number r.promoted_words_per_run) ]
  in
  let doc =
    Object
      [ ("schema_version", int json_schema_version);
        ( "date",
          String
            (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d"
               (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
               tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec) );
        ("host", Scd_obs.Prof.host ());
        ("jobs", int opts.jobs);
        (* recommended_domains predates the host object; kept top-level too
           so schema<5 consumers keep working *)
        ("recommended_domains", int (Scd_util.Pool.default_jobs ()));
        ("scale", String (if opts.quick then "quick" else "full"));
        ("experiments", Array (List.map experiment experiments));
        ("total_seconds", Number total_seconds);
        ("cache", Option.fold ~none:Null ~some:cache store);
        ("micro", Array (List.map micro_result micro)) ]
  in
  let oc = open_out path in
  output_string oc (to_string doc ^ "\n");
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
  let micro_only = opts.micro || opts.check_budgets in
  let kernels = if micro_only then micro_kernels () else [] in
  let micro = if opts.micro then run_micro kernels else [] in
  let store = Option.map Scd_experiments.Store.create opts.cache in
  Scd_experiments.Sweep.set_store store;
  (* --micro or --check-budgets alone runs no experiment; combined with
     --only it runs both, e.g. for one BENCH json *)
  let rendered, total_seconds =
    if micro_only && opts.only = None then ([], Float.nan)
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
     report. *)
  if opts.check_budgets && not (check_budgets kernels) then exit 1
