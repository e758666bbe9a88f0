type entry = { name : string; minor_words_per_run : float }

(* The checked-in allocation-budget table: one ceiling per bench --micro
   kernel, in minor words per run, set a few percent above the value
   measured at the time the budget was last reviewed (bechamel OLS
   estimate, GC sampling hoisted out of the timed region). The bench
   --check-budgets gate fails when a micro exceeds its ceiling by more
   than the tolerance, so an accidental allocation regression on a hot
   path fails `dune runtest` instead of landing silently.

   When a *deliberate* change shifts a number, re-measure at the gate's
   quota with `dune exec bench/main.exe -- --micro --micro-quota 0.25
   --json /tmp/m.json`, update the ceiling here to ~1.05x the new steady
   value, and say why in the commit.

   Measured 2026-08-09 (OCaml 5.1.1, 64-bit, quota 0.25s); ceilings are
   ~1.05x those values, so with the 10% tolerance a +25% allocation
   regression lands well past the limit. Calibrate at quota 0.25, not
   longer: above ~0.5s/micro bechamel's OLS fit drifts a few percent high
   and starts attributing a few hundred words/run of sampling overhead to
   genuinely allocation-free kernels (the scratch micros read ~690 at
   quota 1 but exactly 0 at 0.25). The runtest gate pins quota 0.25 for
   the same reason; the tolerance still absorbs the drift if someone runs
   --check-budgets at a longer quota by hand. *)
let table =
  [
    (* boxed event path: one Event.t record per consumed instruction *)
    { name = "pipeline-consume-1k"; minor_words_per_run = 3840.0 };
    (* the allocation-free scratch hot path: PR 1's 6.5x win; keep at zero *)
    { name = "pipeline-consume-scratch-1k"; minor_words_per_run = 0.0 };
    { name = "pipeline-scratch-probe-off-1k"; minor_words_per_run = 0.0 };
    { name = "pipeline-scratch-probe-on-1k"; minor_words_per_run = 0.0 };
    (* disabled host-profiler spans must also stay allocation-free; the
       enabled path pays ~99 words/span (frames, stat records, the event
       log) and is pinned so probe cost cannot creep *)
    { name = "prof-span-off-1k"; minor_words_per_run = 0.0 };
    { name = "prof-span-on-1k"; minor_words_per_run = 97900.0 };
    (* ratcheted ~10x down when the predictor scans were hoisted to
       top-level tail recursion (no closure environments on the hot path);
       the residue is bench-harness setup, not per-lookup cost. Re-set
       2026-10-17 to ~1.05x the highest of eight release-build runs
       (1977, 2033): the kernels' exact allocation is unchanged (3054 and
       3192 words/run by Gc.minor_words), but faster predictor code moved
       where the estimate lands (see the note on the cosim micros) *)
    { name = "btb-lookup-insert-1k"; minor_words_per_run = 2080.0 };
    { name = "engine-bop-1k"; minor_words_per_run = 2130.0 };
    (* reusing one VM state across runs cut these from 137k/234k *)
    { name = "rvm-fib12"; minor_words_per_run = 53800.0 };
    { name = "svm-fib12"; minor_words_per_run = 5960.0 };
    { name = "tournament-predict-update-1k"; minor_words_per_run = 0.0 };
    { name = "erv32-exec-200-iter"; minor_words_per_run = 4860.0 };
    (* the ROADMAP target, landed: the flat tape + SoA predictor refactor
       dropped steady-state co-simulation allocation ~30-45x (scd was
       825800); what remains is per-run setup (program compile, layout,
       result snapshot), not per-bytecode traffic. Re-set 2026-10-17,
       once the driver stopped allocating per bytecode (exact counts by
       Gc.minor_words: 32062/28868/32062/35284 -> 25621/25621/25621/25629
       words/run), to ~1.05x the highest of nine release-build runs. The
       estimate comes from GC counters that only advance at minor
       collections, so the same kernel reads anywhere in 12.9k-17.4k from
       run to run; ceilings sit above that spread, and a 4-word record per
       bytecode (~6.4k words/run) trips them *)
    { name = "cosim-fib10-baseline"; minor_words_per_run = 17500.0 };
    { name = "cosim-fib10-jte"; minor_words_per_run = 17500.0 };
    { name = "cosim-fib10-vbbi"; minor_words_per_run = 17500.0 };
    { name = "cosim-fib10-scd"; minor_words_per_run = 18300.0 };
  ]

let find name = List.find_opt (fun e -> e.name = name) table

let default_tolerance = 0.10

(* Absolute slack absorbing measurement noise (boxed counter samples, OLS
   residue) so zero-word budgets don't fail on a handful of words. *)
let slack_words = 64.0

let limit ?(tolerance = default_tolerance) e =
  (e.minor_words_per_run *. (1.0 +. tolerance)) +. slack_words

type status = Pass | Fail | Missing

type verdict = {
  entry : entry;
  measured : float option;  (* None when the report lacks the micro *)
  limit : float;
  status : status;
}

let check_measured ?(tolerance = default_tolerance) ?(budgets = table) measured =
  List.map
    (fun e ->
      let lim = limit ~tolerance e in
      match List.assoc_opt e.name measured with
      | None -> { entry = e; measured = None; limit = lim; status = Missing }
      | Some m ->
        { entry = e; measured = Some m; limit = lim;
          status = (if m <= lim then Pass else Fail) })
    budgets

(* A budgeted micro missing from the report also fails the gate: budgets
   must not rot silently when a kernel is renamed or dropped. *)
let ok verdicts = List.for_all (fun v -> v.status = Pass) verdicts

let status_name = function Pass -> "pass" | Fail -> "FAIL" | Missing -> "MISSING"

let check_report ?tolerance ?budgets report =
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
      Ok (check_measured ?tolerance ?budgets measured))
