type entry = { name : string; minor_words_per_run : float }

(* The checked-in allocation-budget table: one budget per bench --micro
   kernel, in minor words per run. Each budget is the kernel's exact count
   (a Gc.minor_words delta over direct calls after a warm-up call, the
   same every run), and the bench --check-budgets gate fails when a micro
   allocates a single word more, so an allocation regression on a hot path
   fails `dune runtest` instead of landing silently.

   When a *deliberate* change shifts a count, `dune exec bench/main.exe --
   --check-budgets` prints the new one: copy it here and say why in the
   commit. Counts are for OCaml 5.1.1, 64-bit, the release build (the dev
   profile's -opaque boxes values across modules and counts more).

   Measured 2026-10-17. *)
let table =
  [
    (* the allocation-free tape hot path, probe off and on, and over
       every cell kind the driver emits: keep at zero *)
    { name = "pipeline-consume-tape-1k"; minor_words_per_run = 0.0 };
    { name = "pipeline-tape-probe-on-1k"; minor_words_per_run = 0.0 };
    { name = "pipeline-consume-mixed-1k"; minor_words_per_run = 0.0 };
    (* disabled host-profiler spans must also stay allocation-free; the
       enabled path pays ~107 words/span (frames, stat records, the event
       log) and is pinned so probe cost cannot creep *)
    { name = "prof-span-off-1k"; minor_words_per_run = 0.0 };
    { name = "prof-span-on-1k"; minor_words_per_run = 107002.0 };
    (* each run builds a fresh BTB (and engine) *)
    { name = "btb-lookup-insert-1k"; minor_words_per_run = 3054.0 };
    { name = "engine-bop-1k"; minor_words_per_run = 3192.0 };
    (* one VM state reused across runs (reset per run) *)
    { name = "rvm-fib12"; minor_words_per_run = 54149.0 };
    { name = "svm-fib12"; minor_words_per_run = 9000.0 };
    (* each run builds a fresh predictor *)
    { name = "tournament-predict-update-1k"; minor_words_per_run = 138.0 };
    (* 603 instructions; the executor builds no event per retired
       instruction when no tape is attached *)
    { name = "erv32-exec-200-iter"; minor_words_per_run = 1348.0 };
    (* one full co-simulation per scheme: per-run setup (program compile,
       layout, result snapshot), not per-bytecode traffic; a 4-word record
       per bytecode would add ~6.4k words *)
    { name = "cosim-fib10-baseline"; minor_words_per_run = 25720.0 };
    { name = "cosim-fib10-jte"; minor_words_per_run = 25720.0 };
    { name = "cosim-fib10-vbbi"; minor_words_per_run = 25720.0 };
    { name = "cosim-fib10-scd"; minor_words_per_run = 25728.0 };
  ]

let find name = List.find_opt (fun e -> e.name = name) table

type status = Pass | Fail | Missing

type verdict = {
  entry : entry;
  measured : float option;  (* None when the report lacks the micro *)
  status : status;
}

let check_measured ?(budgets = table) measured =
  List.map
    (fun e ->
      match List.assoc_opt e.name measured with
      | None -> { entry = e; measured = None; status = Missing }
      | Some m ->
        { entry = e; measured = Some m;
          status = (if m <= e.minor_words_per_run then Pass else Fail) })
    budgets

(* A budgeted micro missing from the report also fails the gate: budgets
   must not rot silently when a kernel is renamed or dropped. *)
let ok verdicts = List.for_all (fun v -> v.status = Pass) verdicts

let status_name = function Pass -> "pass" | Fail -> "FAIL" | Missing -> "MISSING"

let render verdicts =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-32s %12s %12s  %s\n" "kernel" "budget" "measured" "status";
  List.iter
    (fun v ->
      Printf.bprintf buf "%-32s %12.1f %12s  %s\n" v.entry.name
        v.entry.minor_words_per_run
        (match v.measured with None -> "-" | Some m -> Printf.sprintf "%.1f" m)
        (status_name v.status))
    verdicts;
  Buffer.contents buf

let check_report ?budgets report =
  match Json.parse report with
  | Error e -> Error ("invalid report JSON: " ^ e)
  | Ok doc -> (
    match Option.bind (Json.member "micro" doc) Json.get_list with
    | None -> Error "report has no \"micro\" array (is this a bench --json file?)"
    | Some items ->
      let measured =
        List.filter_map
          (fun item ->
            match
              ( Option.bind (Json.member "name" item) Json.get_string,
                Option.bind (Json.member "minor_words_per_run" item)
                  Json.get_number )
            with
            | Some name, Some words -> Some (name, words)
            | _ -> None)
          items
      in
      Ok (check_measured ?budgets measured))
