open Scd_cosim
open Scd_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_script =
  {|
    function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    local t = {}
    for i = 1, 20 do t[i] = fib(10) + i end
    local s = 0
    for i = 1, 20 do s = s + t[i] end
    print(s)
  |}

let run ?(vm = "lua") ?(machine = Scd_uarch.Config.simulator)
    ?context_switch_interval scheme =
  Driver.run
    { Driver.default_config with frontend = Frontend.get vm; scheme; machine;
      context_switch_interval }
    ~source:small_script

(* ------------------------------------------------------------------ *)
(* Semantic invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_output_independent_of_scheme () =
  let reference = (run Scheme.Baseline).output in
  List.iter
    (fun scheme ->
      List.iter
        (fun vm ->
          Alcotest.(check string)
            "script output never depends on the dispatch scheme" reference
            (run ~vm scheme).output)
        [ "lua"; "js" ])
    Scheme.all

let test_bytecode_count_independent_of_scheme () =
  let reference = (run Scheme.Baseline).bytecodes in
  List.iter
    (fun scheme -> check_int "same bytecodes" reference (run scheme).bytecodes)
    Scheme.all

let prop_generated_programs_scheme_independent =
  QCheck.Test.make ~name:"random programs: co-simulation preserves semantics"
    ~count:12 Gen_program.program (fun source ->
      match
        List.map
          (fun scheme ->
            (Driver.run { Driver.default_config with scheme } ~source).output)
          Scheme.all
      with
      | reference :: rest -> List.for_all (String.equal reference) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* The paper's headline effects                                        *)
(* ------------------------------------------------------------------ *)

let test_scd_reduces_instructions () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "fewer dynamic instructions" true
    (Driver.instructions scd < Driver.instructions baseline);
  let reduction =
    1.0
    -. (float_of_int (Driver.instructions scd)
        /. float_of_int (Driver.instructions baseline))
  in
  check_bool "reduction in the paper's 5-20% band" true
    (reduction > 0.05 && reduction < 0.20)

let test_scd_speeds_up () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "fewer cycles" true (Driver.cycles scd < Driver.cycles baseline)

let test_vbbi_same_instructions_fewer_misses () =
  let baseline = run Scheme.Baseline and vbbi = run Scheme.Vbbi in
  check_int "identical instruction stream"
    (Driver.instructions baseline) (Driver.instructions vbbi);
  check_bool "fewer mispredictions" true
    (Scd_uarch.Stats.total_mispredicts vbbi.stats
     < Scd_uarch.Stats.total_mispredicts baseline.stats)

let test_jump_threading_trades_code_size () =
  let baseline = run Scheme.Jump_threading in
  let plain = run Scheme.Baseline in
  check_bool "fewer instructions than baseline" true
    (Driver.instructions baseline < Driver.instructions plain);
  check_bool "larger code footprint" true (baseline.code_bytes > plain.code_bytes)

let test_scd_bop_hit_rate_high_on_lua () =
  let scd = run Scheme.Scd in
  check_bool "single dispatch site hits nearly always" true
    (Scd_uarch.Stats.bop_hit_rate scd.stats > 0.95)

let test_js_bop_thrashes_across_sites () =
  (* the stack VM's three fetch sites share one Rbop-pc: hit rate drops *)
  let lua = run ~vm:"lua" Scheme.Scd in
  let js = run ~vm:"js" Scheme.Scd in
  check_bool "js hit rate below lua" true
    (Scd_uarch.Stats.bop_hit_rate js.stats
     < Scd_uarch.Stats.bop_hit_rate lua.stats)

let test_dispatch_fraction_band () =
  let r = run Scheme.Baseline in
  let f = Scd_uarch.Stats.dispatch_fraction r.stats in
  check_bool "paper's >25% band (Figure 3)" true (f > 0.2 && f < 0.45)

let test_scd_eliminates_dispatch_mispredictions () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "dispatch MPKI collapses" true
    (Scd_uarch.Stats.dispatch_mpki scd.stats
     < 0.2 *. Scd_uarch.Stats.dispatch_mpki baseline.stats)

(* ------------------------------------------------------------------ *)
(* Engine / BTB interactions                                           *)
(* ------------------------------------------------------------------ *)

let test_jte_cap_respected_in_cosim () =
  let machine =
    Scd_uarch.Config.with_jte_cap
      (Scd_uarch.Config.with_btb_entries Scd_uarch.Config.simulator 64)
      (Some 8)
  in
  let r = run ~machine Scheme.Scd in
  check_bool "engine stats present" true (r.engine <> None);
  check_bool "no cap overflow" true (r.btb.jte_cap_rejects >= 0)

let test_context_switch_flushes () =
  let with_cs = run ~context_switch_interval:50_000 Scheme.Scd in
  let without = run Scheme.Scd in
  let hits r =
    match r.Driver.engine with
    | Some (e : Engine.stats) -> e.bop_hits
    | None -> 0
  in
  let flushes r =
    match r.Driver.engine with
    | Some (e : Engine.stats) -> e.context_switch_flushes
    | None -> 0
  in
  check_bool "context switches happened" true (flushes with_cs > 0);
  check_bool "flushing costs fast-path hits" true (hits with_cs < hits without)

let test_smaller_btb_hurts_scd_less_than_nothing () =
  (* even a 64-entry BTB keeps SCD ahead of baseline (Figure 11 claim) *)
  let machine = Scd_uarch.Config.with_btb_entries Scd_uarch.Config.simulator 64 in
  let baseline = run ~machine Scheme.Baseline in
  let scd = run ~machine Scheme.Scd in
  check_bool "SCD still wins at 64 entries" true
    (Driver.cycles scd < Driver.cycles baseline)

let test_fpga_config_runs () =
  let r = run ~machine:Scd_uarch.Config.fpga Scheme.Scd in
  check_bool "produces cycles" true (Driver.cycles r > 0)

let test_high_end_dual_issue_faster () =
  let sim = run Scheme.Baseline in
  let hi = run ~machine:Scd_uarch.Config.high_end Scheme.Baseline in
  check_bool "dual issue lowers CPI" true
    (Scd_uarch.Stats.cpi hi.stats < Scd_uarch.Stats.cpi sim.stats)

(* ------------------------------------------------------------------ *)
(* Extensions: multi-table, bop policy, indirect override              *)
(* ------------------------------------------------------------------ *)

let test_multi_table_recovers_js_hit_rate () =
  let single = run ~vm:"js" Scheme.Scd in
  let multi =
    Driver.run
      { Driver.default_config with frontend = Frontend.get "js";
        scheme = Scheme.Scd;
        multi_table = true }
      ~source:small_script
  in
  check_bool "multi-table raises the bop hit rate" true
    (Scd_uarch.Stats.bop_hit_rate multi.stats
     > Scd_uarch.Stats.bop_hit_rate single.stats +. 0.05);
  check_bool "and speeds up" true (Driver.cycles multi < Driver.cycles single);
  Alcotest.(check string) "same output" single.output multi.output

let test_multi_table_noop_on_lua () =
  (* the register VM has one dispatch site: multi-table changes nothing *)
  let single = run Scheme.Scd in
  let multi =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd; multi_table = true }
      ~source:small_script
  in
  check_int "identical instruction count"
    (Driver.instructions single) (Driver.instructions multi);
  check_int "identical cycles" (Driver.cycles single) (Driver.cycles multi)

let test_fall_through_policy () =
  (* with a deep rop_gap the stall policy pays bubbles while the
     fall-through policy pays slow-path instructions *)
  let machine gap policy =
    { Scd_uarch.Config.simulator with rop_gap = gap; bop_policy = policy }
  in
  let stall = run ~machine:(machine 12 `Stall) Scheme.Scd in
  let fall = run ~machine:(machine 12 `Fall_through) Scheme.Scd in
  check_bool "stall pays bubbles" true (stall.stats.bop_stall_cycles > 0);
  check_int "fall-through pays no bubbles" 0 fall.stats.bop_stall_cycles;
  check_bool "fall-through executes more instructions" true
    (Driver.instructions fall > Driver.instructions stall);
  check_int "fall-through never hits" 0 fall.stats.bop_hits;
  Alcotest.(check string) "same output" stall.output fall.output

let test_superinstructions_in_cosim () =
  let plain = run Scheme.Scd in
  let fused =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd; superinstructions = true }
      ~source:small_script
  in
  Alcotest.(check string) "same output" plain.output fused.output;
  check_bool "fewer bytecodes dispatched" true (fused.bytecodes < plain.bytecodes);
  check_bool "fewer cycles" true (Driver.cycles fused < Driver.cycles plain)

let test_replication_in_cosim () =
  let plain = run Scheme.Scd in
  let repl =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd;
        bytecode_replication = true }
      ~source:small_script
  in
  Alcotest.(check string) "same output" plain.output repl.output;
  check_int "same bytecode count" plain.bytecodes repl.bytecodes;
  (* replicas consume extra jump-table entries *)
  let jtes r = match r.Driver.engine with Some e -> e.Engine.jru_inserts | None -> 0 in
  check_bool "more JTE installs" true (jtes repl > jtes plain)

let test_indirect_override () =
  let ittage =
    Driver.run
      { Driver.default_config with
        scheme = Scheme.Baseline;
        indirect_override =
          Some (Scd_uarch.Indirect.Ittage { table_entries = 256; tables = 4 }) }
      ~source:small_script
  in
  let baseline = run Scheme.Baseline in
  check_int "same instruction stream"
    (Driver.instructions baseline) (Driver.instructions ittage);
  check_bool "better indirect prediction" true
    (ittage.stats.indirect_mispredicts < baseline.stats.indirect_mispredicts)

(* ------------------------------------------------------------------ *)
(* Stats consistency                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_consistency () =
  let r = run Scheme.Scd in
  let s = r.stats in
  check_bool "cycles >= instructions" true (s.cycles >= s.instructions);
  check_bool "dispatch <= total" true (s.dispatch_instructions <= s.instructions);
  check_bool "bop hits <= bops" true (s.bop_hits <= s.bop_count);
  check_bool "misses <= accesses (i)" true (s.icache_misses <= s.icache_accesses);
  check_bool "misses <= accesses (d)" true (s.dcache_misses <= s.dcache_accesses);
  check_bool "cond mispredicts bounded" true (s.cond_mispredicts <= s.cond_branches);
  check_bool "indirect mispredicts bounded" true
    (s.indirect_mispredicts <= s.indirect_jumps)

let test_instruction_count_scales_with_bytecodes () =
  let r = run Scheme.Baseline in
  let per_bytecode = float_of_int r.stats.instructions /. float_of_int r.bytecodes in
  check_bool "plausible instructions per bytecode" true
    (per_bytecode > 25.0 && per_bytecode < 120.0)

(* ------------------------------------------------------------------ *)
(* Result codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip_real_runs () =
  List.iter
    (fun (vm, scheme) ->
      let r = run ~vm scheme in
      match Result.of_string (Result.to_string r) with
      | Ok r' ->
        check_bool "decode of encode is the identity" true (Result.equal r r')
      | Error m -> Alcotest.fail ("round-trip failed: " ^ m))
    [ ("lua", Scheme.Baseline); ("lua", Scheme.Scd); ("js", Scheme.Scd);
      ("js", Scheme.Jump_threading) ]

(* Random results over the full field space (including an arbitrary-byte
   output payload): the codec must reproduce every value exactly. *)
let random_result =
  let open QCheck.Gen in
  let nat = int_bound 1_000_000 in
  let fields_of template =
    flatten_l (List.map (fun (k, _) -> map (fun v -> (k, v)) nat) template)
  in
  let stats_template = Scd_uarch.Stats.to_assoc (Scd_uarch.Stats.create ()) in
  let btb_template =
    Scd_uarch.Btb.stats_to_assoc
      (Scd_uarch.Btb.stats
         (Scd_uarch.Btb.create ~entries:16 ~ways:2
            ~replacement:Scd_uarch.Btb.Lru ()))
  in
  let engine_template =
    Scd_core.Engine.stats_to_assoc
      (Scd_core.Engine.stats
         (Scd_core.Engine.create
            (Scd_uarch.Btb.create ~entries:16 ~ways:2
               ~replacement:Scd_uarch.Btb.Lru ())))
  in
  let ok = function Ok v -> v | Error m -> failwith m in
  QCheck.make
    (map
       (fun ((stats, btb, engine), (bytecodes, code_bytes, output)) ->
         { Result.stats = ok (Scd_uarch.Stats.of_assoc stats);
           btb = ok (Scd_uarch.Btb.stats_of_assoc btb);
           engine =
             Option.map (fun a -> ok (Scd_core.Engine.stats_of_assoc a)) engine;
           bytecodes; code_bytes; output })
       (pair
          (triple (fields_of stats_template) (fields_of btb_template)
             (opt (fields_of engine_template)))
          (triple nat nat (string_size ~gen:char (int_bound 80)))))

let prop_codec_roundtrip_random =
  QCheck.Test.make ~name:"codec round-trips random results" ~count:200
    random_result (fun r ->
      match Result.of_string (Result.to_string r) with
      | Ok r' -> Result.equal r r'
      | Error _ -> false)

let test_codec_rejects_bad_payloads () =
  let r = run Scheme.Scd in
  let text = Result.to_string r in
  let rejects what payload =
    match Result.of_string payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("codec accepted " ^ what)
  in
  rejects "an empty payload" "";
  rejects "a bad header" ("not-a-result 1\n" ^ text);
  rejects "a truncated payload" (String.sub text 0 (String.length text - 5));
  rejects "trailing garbage after end" (text ^ "junk\n");
  (let body = String.sub text (String.index text '\n' + 1)
       (String.length text - String.index text '\n' - 1) in
   rejects "a stale schema version" ("scd-result 999\n" ^ body));
  (let without_instructions =
     String.split_on_char '\n' text
     |> List.filter (fun l -> not (String.starts_with ~prefix:"stat instructions " l))
     |> String.concat "\n"
   in
   rejects "a missing stats field" without_instructions);
  rejects "an unrecognised record"
    (let lines = String.split_on_char '\n' text in
     String.concat "\n" (List.hd lines :: "bogus record 42" :: List.tl lines));
  (* the non-error path still works after all that *)
  match Result.of_string text with
  | Ok r' -> check_bool "original still decodes" true (Result.equal r r')
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Flat event tape vs legacy boxed delivery                            *)
(* ------------------------------------------------------------------ *)

(* The driver batches each bytecode's expansion into a flat int tape; the
   [`Boxed] path decodes every cell into an [Event.t] and feeds the old
   [Pipeline.consume]. The two deliveries must be bit-identical — same
   cycles, same BTB stats, same engine counters — across schemes, VMs,
   multi-table and context-switch configurations. Under a context switch
   the flat path splits run cells at the pipeline's retire boundary while
   the boxed path counts cells itself; a small prime interval lands
   boundaries inside run cells. *)
let test_event_paths_identical () =
  List.iter
    (fun (vm, scheme, cs, multi) ->
      let go event_path =
        Driver.run ~event_path
          { Driver.default_config with frontend = Frontend.get vm; scheme;
            context_switch_interval = cs; multi_table = multi }
          ~source:small_script
      in
      check_bool
        (Printf.sprintf "%s/%s identical across event paths" vm
           (Scheme.name scheme))
        true
        (Result.equal (go `Flat) (go `Boxed)))
    [ ("lua", Scheme.Baseline, None, false);
      ("lua", Scheme.Scd, None, false);
      ("lua", Scheme.Scd, Some 50_000, false);
      ("lua", Scheme.Scd, Some 97, false);
      ("js", Scheme.Scd, Some 97, true);
      ("js", Scheme.Scd, None, true);
      ("js", Scheme.Jump_threading, None, false);
      ("lua", Scheme.Vbbi, None, false) ]

let prop_event_paths_agree =
  QCheck.Test.make
    ~name:"random programs: flat and boxed event paths bit-identical" ~count:8
    Gen_program.program (fun source ->
      List.for_all
        (fun (scheme, context_switch_interval) ->
          let go event_path =
            Driver.run ~event_path
              { Driver.default_config with scheme; context_switch_interval }
              ~source
          in
          Result.equal (go `Flat) (go `Boxed))
        (List.map (fun s -> (s, None)) Scheme.all
         @ [ (Scheme.Scd, Some 97) ]))

(* Tentpole differential: template stamping must reproduce the push-based
   expansion *word for word*, not merely land on the same simulation result.
   [`Flat_push] derives every cell through the cell-by-cell emitters on the
   same tape encoding, so concatenating every batch of both runs must give
   identical int arrays — run-dependent patch words (fetch addresses, data
   addresses, branch outcomes, bop hits) included. *)
let collect_tape_words event_path config =
  let batches = ref [] in
  let trap tape = batches := Scd_isa.Event.tape_snapshot tape ~from:0 :: !batches in
  let (_ : Driver.result) =
    Driver.run ~event_path ~tape_trap:trap config ~source:small_script
  in
  Array.concat (List.rev !batches)

let test_stamped_tape_words_identical () =
  List.iter
    (fun (vm, scheme, multi, cs, seed) ->
      let config =
        { Driver.default_config with frontend = Frontend.get vm; scheme;
          multi_table = multi; context_switch_interval = cs;
          seed = Int64.of_int seed }
      in
      check_bool
        (Printf.sprintf "%s/%s%s%s stamped tape = pushed tape, word for word"
           vm (Scheme.name scheme)
           (if multi then "/multi" else "")
           (match cs with None -> "" | Some n -> Printf.sprintf "/cs %d" n))
        true
        (collect_tape_words `Flat config = collect_tape_words `Flat_push config))
    [ ("lua", Scheme.Baseline, false, None, 1);
      ("lua", Scheme.Jump_threading, false, None, 2);
      ("lua", Scheme.Vbbi, false, None, 3);
      ("lua", Scheme.Scd, false, None, 4);
      ("lua", Scheme.Scd, true, None, 5);
      ("js", Scheme.Baseline, false, None, 6);
      ("js", Scheme.Jump_threading, false, None, 7);
      ("js", Scheme.Scd, false, None, 8);
      ("js", Scheme.Scd, true, None, 9);
      (* both tapes carry run cells under a context-switch interval, and
         the JTE flushes it triggers steer later bop outcomes *)
      ("lua", Scheme.Scd, false, Some 2_000, 10);
      ("js", Scheme.Scd, true, Some 2_000, 11) ]

(* Stamping has no fallback: a template set holds one blob template per
   [spec.blobs] index and one per builtin, indexed as the layout indexes
   blob entries. Pin that after a stamped run, for every spec and scheme:
   template [i] is a call into blob [i]'s entry that ends in the return. *)
let test_templates_cover_every_blob () =
  List.iter
    (fun (vm, superinstructions, bytecode_replication) ->
      let frontend = Frontend.get vm in
      let (module F : Frontend.S) = frontend in
      let spec =
        F.spec { Frontend.superinstructions; bytecode_replication }
      in
      List.iter
        (fun scheme ->
          let (_ : Driver.result) =
            Driver.run
              { Driver.default_config with frontend; scheme;
                superinstructions; bytecode_replication }
              ~source:small_script
          in
          let ts =
            Scd_codegen.Template.find_or_build ~spec ~scheme (fun () ->
                Alcotest.failf "%s/%s: the run built no template set" vm
                  (Scheme.name scheme))
          in
          let layout =
            Scd_codegen.Layout.build ~spec ~scheme ~fn_code_sizes:[| 0 |]
              ~fn_const_counts:[| 0 |]
          in
          let name fmt =
            Printf.ksprintf
              (fun m -> Printf.sprintf "%s/%s %s" vm (Scheme.name scheme) m)
              fmt
          in
          let check_blob what ~entry i (t : Scd_codegen.Template.t) =
            let open Scd_isa.Event in
            let cells = t.cells in
            let last = Array.length cells - cell_words in
            check_bool (name "%s %d starts with its call" what i) true
              (last > 0 && cells.(1) land 0xF = tag_call);
            check_int (name "%s %d calls its entry" what i) (entry i) cells.(2);
            check_bool (name "%s %d ends with the return" what i) true
              (cells.(last + 1) land 0xF = tag_return)
          in
          check_int (name "one template per spec.blobs entry")
            (Array.length spec.blobs)
            (Array.length ts.Scd_codegen.Template.blobs);
          Array.iteri
            (check_blob "blob" ~entry:(Scd_codegen.Layout.blob_entry layout))
            ts.blobs;
          check_int (name "one template per builtin")
            Scd_runtime.Builtins.count (Array.length ts.builtins);
          Array.iteri
            (check_blob "builtin"
               ~entry:(Scd_codegen.Layout.builtin_entry layout))
            ts.builtins)
        Scheme.all)
    [ ("lua", false, false); ("lua", true, false); ("lua", false, true);
      ("js", false, false) ]

let prop_stamped_tape_words_agree =
  QCheck.Test.make
    ~name:"random programs: stamped and pushed tapes word-for-word identical"
    ~count:6 Gen_program.program (fun source ->
      List.for_all
        (fun vm ->
          List.for_all
            (fun scheme ->
              let config =
                { Driver.default_config with frontend = Frontend.get vm; scheme }
              in
              let go event_path =
                let batches = ref [] in
                let trap tape =
                  batches :=
                    Scd_isa.Event.tape_snapshot tape ~from:0 :: !batches
                in
                let (_ : Driver.result) =
                  Driver.run ~event_path ~tape_trap:trap config ~source
                in
                Array.concat (List.rev !batches)
              in
              go `Flat = go `Flat_push)
            Scheme.all)
        [ "lua"; "js" ])

(* The point of the tape: steady-state event delivery plus engine fast-path
   probes allocate nothing at all. Probes are off (the default
   [Probe.null]); the warm-up loop grows the tape to its final capacity and
   fills every predictor structure, after which 10k full steps must leave
   the minor-allocation counter exactly where it was. A context-switch
   retire boundary is armed as [Driver.run] arms it, so run-cell splits and
   the JTE flushes they trigger are inside the measured window; runs
   without an interval take the same [consume_tape] loop with the boundary
   never reached. *)
let test_flat_event_delivery_allocation_free () =
  let open Scd_isa.Event in
  let machine = Scd_uarch.Config.simulator in
  let btb =
    Scd_uarch.Btb.create ~entries:machine.btb_entries ~ways:machine.btb_ways
      ~replacement:machine.btb_replacement ()
  in
  let interval = 97 in
  let engine = Scd_core.Engine.create btb in
  let pipeline =
    Scd_uarch.Pipeline.create ~btb
      ~indirect:(Scheme.indirect_scheme Scheme.Scd) machine
  in
  Scd_uarch.Pipeline.set_retire_boundary pipeline ~every:interval (fun () ->
      Scd_core.Engine.context_switch engine);
  let tape = tape_create () in
  let step i =
    let pc = 0x1000 + ((i land 63) * 4) in
    let opcode = i land 31 in
    tape_clear tape;
    tape_push tape ~pc
      ~flags:(tag_mem_read lor flag_dispatch lor flag_sets_rop)
      ~arg1:(0x8000 + ((i land 255) * 4))
      ~arg2:(-1);
    tape_push tape ~pc:(pc + 4) ~flags:tag_plain ~arg1:0 ~arg2:(-1);
    (* a plain-run cell spanning a block boundary exercises the aggregate
       consumption path (including its block-walk fetches) *)
    tape_push_run tape ~pc:(pc + 8) ~dispatch:false ~count:24 ~stride:12;
    tape_push tape ~pc:(pc + 8)
      ~flags:(tag_cond_branch lor if i land 1 = 0 then flag_taken else 0)
      ~arg1:(pc + 64) ~arg2:(-1);
    Scd_uarch.Pipeline.consume_tape pipeline tape;
    (* the engine's architectural fast path, at the flush boundary like the
       driver: probe, install a JTE on a miss *)
    if
      Scd_core.Engine.bop_target engine ~table:0 ~opcode
      = Scd_core.Engine.no_target
    then
      Scd_core.Engine.jru_code engine ~table:0 ~opcode
        ~target:(0x4000 + (opcode * 8));
    tape_clear tape;
    tape_push tape ~pc:(pc + 12)
      ~flags:(tag_bop lor flag_dispatch)
      ~arg1:(pc + 16) ~arg2:opcode;
    tape_push tape ~pc:(pc + 16)
      ~flags:(tag_jru lor flag_dispatch)
      ~arg1:(0x4000 + (opcode * 8))
      ~arg2:opcode;
    tape_push tape ~pc:(pc + 20) ~flags:tag_call ~arg1:0x6000 ~arg2:(-1);
    tape_push tape ~pc:(pc + 24) ~flags:tag_return ~arg1:(pc + 28) ~arg2:(-1);
    tape_push tape ~pc:(pc + 28) ~flags:tag_ind_jump
      ~arg1:(0x4000 + (opcode * 8))
      ~arg2:opcode;
    Scd_uarch.Pipeline.consume_tape pipeline tape
  in
  for i = 0 to 4_095 do
    step i
  done;
  let flushes () = (Scd_core.Engine.stats engine).context_switch_flushes in
  let retired () = (Scd_uarch.Pipeline.stats pipeline).instructions in
  let flushes0 = flushes () and retired0 = retired () in
  let m0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    step i
  done;
  let delta = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.0))
    "10k flat pipeline+engine steps allocate zero minor words" 0.0 delta;
  check_int "one JTE flush per boundary crossed in the window"
    ((retired () / interval) - (retired0 / interval))
    (flushes () - flushes0)

(* ------------------------------------------------------------------ *)
(* Emission-stride regressions (dispatch-PC spacing)                   *)
(* ------------------------------------------------------------------ *)

(* Collect every cell of every tape batch of a run as (pc, tag, arg1, arg2)
   tuples, via the [tape_trap] observer. *)
let collect_cells config =
  let open Scd_isa.Event in
  let cells = ref [] in
  let trap tape =
    for i = 0 to tape_cells tape - 1 do
      cells :=
        (tape_cell_pc tape i, tape_cell_tag tape i, tape_cell_arg1 tape i,
         tape_cell_arg2 tape i)
        :: !cells
    done
  in
  let (_ : Driver.result) = Driver.run ~tape_trap:trap config ~source:small_script in
  List.rev !cells

(* A jump-threading replica is inlined C at a handler tail: its instructions
   are spaced [Layout.hot_stride] (12) bytes apart, unlike the compact
   4-byte common-site block. The first two dispatch loads (vm.pc, then the
   bytecode itself) are adjacent emitted instructions, so their PC delta is
   exactly the emission stride — a regression pin for the cursor bug that
   advanced by a hardcoded 4 after the first load. *)
let test_jt_replica_pc_spacing () =
  let open Scd_isa in
  let config =
    { Driver.default_config with scheme = Scheme.Jump_threading }
  in
  let cells = collect_cells config in
  let vm_state =
    let (module F : Frontend.S) = config.frontend in
    let spec = F.spec { Frontend.superinstructions = false;
                        bytecode_replication = false } in
    Scd_codegen.Layout.vm_state_addr
      (Scd_codegen.Layout.build ~spec ~scheme:Scheme.Jump_threading
         ~fn_code_sizes:[||] ~fn_const_counts:[||])
  in
  (* fetch pairs: a dispatch vm.pc load immediately followed by another
     dispatch load (the bytecode fetch) *)
  let deltas = ref [] in
  let rec scan = function
    | (pc0, t0, a0, _) :: ((pc1, t1, a1, _) :: _ as rest) ->
      if t0 = Event.tag_mem_read && a0 = vm_state && t1 = Event.tag_mem_read
         && a1 <> vm_state
      then deltas := (pc1 - pc0) :: !deltas;
      scan rest
    | _ -> ()
  in
  scan cells;
  let deltas = List.rev !deltas in
  check_bool "saw many dispatches" true (List.length deltas > 100);
  (match deltas with
   | first :: replicas ->
     check_int "first dispatch uses the compact common site (stride 4)" 4 first;
     List.iter
       (check_int "every replica dispatch is spaced at hot_stride"
          Scd_codegen.Layout.hot_stride)
       replicas
   | [] -> Alcotest.fail "no dispatch fetch pairs observed")

(* Runtime-helper calls are handler instructions: the return lands one
   hot-stride slot past the call, and the call cell carries that link so
   the RAS push matches the return target exactly. *)
let test_rt_call_link_matches_return () =
  let open Scd_isa in
  let cells =
    collect_cells
      { Driver.default_config with scheme = Scheme.Jump_threading }
  in
  let calls = ref 0 in
  let rec scan = function
    | (pc, t, _, link) :: rest ->
      if t = Event.tag_call then begin
        incr calls;
        check_int "call link is pc + hot_stride"
          (pc + Scd_codegen.Layout.hot_stride) link;
        (match
           List.find_opt (fun (_, t', _, _) -> t' = Event.tag_return) rest
         with
         | Some (_, _, target, _) ->
           check_int "matching return targets the link" link target
         | None -> Alcotest.fail "call with no subsequent return")
      end;
      scan rest
    | [] -> ()
  in
  scan cells;
  check_bool "saw runtime-helper calls" true (!calls > 0)

let test_result_is_pure_snapshot () =
  (* two runs never alias each other's stats blocks *)
  let a = run Scheme.Scd in
  let b = run Scheme.Scd in
  check_bool "distinct stats records" true (a.stats != b.stats);
  check_bool "equal by value" true (Result.equal a b);
  let c = Result.copy a in
  c.stats.Scd_uarch.Stats.cycles <- c.stats.Scd_uarch.Stats.cycles + 1;
  check_bool "copy does not alias" true
    (a.stats.Scd_uarch.Stats.cycles <> c.stats.Scd_uarch.Stats.cycles)

let () =
  Alcotest.run "scd_cosim"
    [
      ( "semantics",
        [
          Alcotest.test_case "output scheme-independent" `Quick
            test_output_independent_of_scheme;
          Alcotest.test_case "bytecodes scheme-independent" `Quick
            test_bytecode_count_independent_of_scheme;
          QCheck_alcotest.to_alcotest prop_generated_programs_scheme_independent;
        ] );
      ( "paper-effects",
        [
          Alcotest.test_case "scd cuts instructions" `Quick test_scd_reduces_instructions;
          Alcotest.test_case "scd speeds up" `Quick test_scd_speeds_up;
          Alcotest.test_case "vbbi profile" `Quick test_vbbi_same_instructions_fewer_misses;
          Alcotest.test_case "jump threading trade-off" `Quick
            test_jump_threading_trades_code_size;
          Alcotest.test_case "lua bop hit rate" `Quick test_scd_bop_hit_rate_high_on_lua;
          Alcotest.test_case "js site thrash" `Quick test_js_bop_thrashes_across_sites;
          Alcotest.test_case "dispatch fraction" `Quick test_dispatch_fraction_band;
          Alcotest.test_case "dispatch MPKI collapse" `Quick
            test_scd_eliminates_dispatch_mispredictions;
        ] );
      ( "btb-interactions",
        [
          Alcotest.test_case "jte cap" `Quick test_jte_cap_respected_in_cosim;
          Alcotest.test_case "context switches" `Quick test_context_switch_flushes;
          Alcotest.test_case "small btb" `Quick test_smaller_btb_hurts_scd_less_than_nothing;
          Alcotest.test_case "fpga config" `Quick test_fpga_config_runs;
          Alcotest.test_case "high-end dual issue" `Quick test_high_end_dual_issue_faster;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "multi-table js" `Quick test_multi_table_recovers_js_hit_rate;
          Alcotest.test_case "multi-table lua noop" `Quick test_multi_table_noop_on_lua;
          Alcotest.test_case "fall-through policy" `Quick test_fall_through_policy;
          Alcotest.test_case "superinstructions" `Quick test_superinstructions_in_cosim;
          Alcotest.test_case "replication" `Quick test_replication_in_cosim;
          Alcotest.test_case "indirect override" `Quick test_indirect_override;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "stats invariants" `Quick test_stats_consistency;
          Alcotest.test_case "instructions per bytecode" `Quick
            test_instruction_count_scales_with_bytecodes;
        ] );
      ( "event-paths",
        [
          Alcotest.test_case "flat vs boxed bit-identical" `Quick
            test_event_paths_identical;
          QCheck_alcotest.to_alcotest prop_event_paths_agree;
          Alcotest.test_case "stamped tape words identical" `Quick
            test_stamped_tape_words_identical;
          QCheck_alcotest.to_alcotest prop_stamped_tape_words_agree;
          Alcotest.test_case "templates cover every blob" `Quick
            test_templates_cover_every_blob;
          Alcotest.test_case "flat delivery allocation-free" `Quick
            test_flat_event_delivery_allocation_free;
        ] );
      ( "emission-strides",
        [
          Alcotest.test_case "jt replica pc spacing" `Quick
            test_jt_replica_pc_spacing;
          Alcotest.test_case "rt-call link matches return" `Quick
            test_rt_call_link_matches_return;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip real runs" `Quick
            test_codec_roundtrip_real_runs;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip_random;
          Alcotest.test_case "rejects bad payloads" `Quick
            test_codec_rejects_bad_payloads;
          Alcotest.test_case "pure snapshot" `Quick test_result_is_pure_snapshot;
        ] );
    ]
