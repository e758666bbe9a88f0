open Scd_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Instruction validation                                              *)
(* ------------------------------------------------------------------ *)

let test_validate_ranges () =
  let ok i = Alcotest.(check bool) "valid" true (Result.is_ok (Instr.validate i)) in
  let bad i = Alcotest.(check bool) "invalid" true (Result.is_error (Instr.validate i)) in
  ok (Instr.Alu { op = Add; rd = 31; rs1 = 0; rs2 = 15; op_suffix = true });
  bad (Instr.Alu { op = Add; rd = 32; rs1 = 0; rs2 = 0; op_suffix = false });
  ok (Instr.Alui { op = Add; rd = 1; rs1 = 1; imm = 2047; op_suffix = false });
  bad (Instr.Alui { op = Add; rd = 1; rs1 = 1; imm = 2048; op_suffix = false });
  ok (Instr.Branch { cond = Eq; rs1 = 1; rs2 = 2; offset = -8192 });
  bad (Instr.Branch { cond = Eq; rs1 = 1; rs2 = 2; offset = 6 });
  (* misaligned *)
  ok (Instr.Jal { rd = 0; offset = 4 });
  bad (Instr.Jal { rd = 0; offset = 2 });
  ok (Instr.Lui { rd = 3; imm = 0xFFFFF });
  bad (Instr.Lui { rd = 3; imm = 0x100000 })

let test_mnemonics () =
  Alcotest.(check string) "op suffix" "ldw.op"
    (Instr.mnemonic
       (Instr.Load { width = Word; rd = 1; base = 2; offset = 0; op_suffix = true }));
  Alcotest.(check string) "bop" "bop" (Instr.mnemonic Instr.Bop);
  Alcotest.(check string) "jte.flush" "jte.flush" (Instr.mnemonic Instr.Jte_flush)

let test_is_scd_extension () =
  check_bool "bop" true (Instr.is_scd_extension Instr.Bop);
  check_bool "plain add" false
    (Instr.is_scd_extension (Instr.Alu { op = Add; rd = 0; rs1 = 0; rs2 = 0; op_suffix = false }));
  check_bool "add.op" true
    (Instr.is_scd_extension (Instr.Alu { op = Add; rd = 0; rs1 = 0; rs2 = 0; op_suffix = true }))

(* ------------------------------------------------------------------ *)
(* Encode / decode                                                     *)
(* ------------------------------------------------------------------ *)

let arbitrary_instr : Instr.t QCheck.arbitrary =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let alu_op =
    oneofl
      Instr.[ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Slt; Sltu; Mul; Div; Rem ]
  in
  let cond = oneofl Instr.[ Eq; Ne; Lt; Ge; Ltu; Geu ] in
  let width = oneofl Instr.[ Byte; Half; Word ] in
  let gen =
    frequency
      [
        ( 3,
          alu_op >>= fun op ->
          reg >>= fun rd ->
          reg >>= fun rs1 ->
          reg >>= fun rs2 ->
          bool >|= fun op_suffix -> Instr.Alu { op; rd; rs1; rs2; op_suffix } );
        ( 3,
          alu_op >>= fun op ->
          reg >>= fun rd ->
          reg >>= fun rs1 ->
          int_range (-2048) 2047 >>= fun imm ->
          bool >|= fun op_suffix -> Instr.Alui { op; rd; rs1; imm; op_suffix } );
        ( 2,
          width >>= fun width ->
          reg >>= fun rd ->
          reg >>= fun base ->
          int_range (-4096) 4095 >>= fun offset ->
          bool >|= fun op_suffix -> Instr.Load { width; rd; base; offset; op_suffix } );
        ( 2,
          width >>= fun width ->
          reg >>= fun src ->
          reg >>= fun base ->
          int_range (-4096) 4095 >|= fun offset ->
          Instr.Store { width; src; base; offset } );
        ( 2,
          cond >>= fun cond ->
          reg >>= fun rs1 ->
          reg >>= fun rs2 ->
          int_range (-2048) 2047 >|= fun k ->
          Instr.Branch { cond; rs1; rs2; offset = 4 * k } );
        ( 1,
          reg >>= fun rd ->
          int_range (-524288) 524287 >|= fun k -> Instr.Jal { rd; offset = 4 * k } );
        ( 1,
          reg >>= fun rd ->
          reg >>= fun base ->
          int_range (-4096) 4095 >|= fun offset -> Instr.Jalr { rd; base; offset } );
        ( 1,
          reg >>= fun rd ->
          reg >>= fun base ->
          int_range (-4096) 4095 >|= fun offset -> Instr.Jru { rd; base; offset } );
        (1, reg >>= fun rd -> int_bound 0xFFFFF >|= fun imm -> Instr.Lui { rd; imm });
        (1, reg >|= fun rs -> Instr.Setmask { rs });
        (1, oneofl Instr.[ Bop; Jte_flush; Halt ]);
      ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Instr.pp) gen

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"decode (encode i) = i" ~count:2000 arbitrary_instr
    (fun instr ->
      match Encode.encode instr with
      | Error _ -> false
      | Ok word -> (
        match Encode.decode word with
        | Ok decoded -> Instr.equal decoded instr
        | Error _ -> false))

let prop_encoded_fits_32_bits =
  QCheck.Test.make ~name:"encoding fits in 32 bits" ~count:2000 arbitrary_instr
    (fun instr ->
      match Encode.encode instr with
      | Error _ -> false
      | Ok word -> word >= 0 && word <= 0xFFFFFFFF)

let test_decode_bad_major () =
  check_bool "unknown major rejected" true (Result.is_error (Encode.decode 31))

let test_encode_rejects_invalid () =
  check_bool "invalid instruction rejected" true
    (Result.is_error
       (Encode.encode (Instr.Alui { op = Add; rd = 1; rs1 = 1; imm = 99999; op_suffix = false })))

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)
(* ------------------------------------------------------------------ *)

let test_asm_basic () =
  let program =
    Asm.assemble_exn {|
      start:
        addi r1, r0, 5
        add  r2, r1, r1
        halt
    |}
  in
  check_int "three instructions" 3 (Array.length program.instrs);
  Alcotest.(check (option int)) "label" (Some program.base)
    (Asm.address_of program "start")

let test_asm_branch_labels () =
  let program =
    Asm.assemble_exn
      {|
        addi r1, r0, 10
      loop:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
      |}
  in
  match program.instrs.(2) with
  | Instr.Branch { offset; _ } -> check_int "backward offset" (-4) offset
  | _ -> Alcotest.fail "expected a branch"

let test_asm_li_expansion () =
  let small = Asm.assemble_exn "li r1, 100\nhalt" in
  check_int "small li is one instruction" 2 (Array.length small.instrs);
  let large = Asm.assemble_exn "li r1, 0x12345\nhalt" in
  check_int "large li expands to lui+addi" 3 (Array.length large.instrs)

let test_asm_label_after_li () =
  (* label addresses must account for multi-instruction pseudo expansion *)
  let program = Asm.assemble_exn {|
      li r1, 0x12345
    after:
      halt
  |} in
  Alcotest.(check (option int)) "address skips both words"
    (Some (program.base + 8))
    (Asm.address_of program "after")

let test_asm_scd_instructions () =
  let program =
    Asm.assemble_exn
      {|
        setmask r4
        jte.flush
        ldw.op r9, 0(r3)
        bop
        jru r0, 0(r6)
        halt
      |}
  in
  (match program.instrs.(2) with
   | Instr.Load { op_suffix; _ } -> check_bool ".op parsed" true op_suffix
   | _ -> Alcotest.fail "expected a load");
  match program.instrs.(4) with
  | Instr.Jru _ -> ()
  | _ -> Alcotest.fail "expected jru"

let test_asm_la_pseudo () =
  let program =
    Asm.assemble_exn {|
        la r1, target
        halt
      target:
        halt
    |}
  in
  check_int "la reserves two slots" 4 (Array.length program.instrs);
  let machine = Exec.create program in
  ignore (Exec.run machine);
  Alcotest.(check (option int)) "la loads the absolute address"
    (Asm.address_of program "target")
    (Some (Exec.reg machine 1))

let test_asm_errors () =
  let expect_error source =
    match Asm.assemble source with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not assemble: " ^ source)
  in
  expect_error "frobnicate r1";
  expect_error "add r1, r2";
  expect_error "jal r0, missing_label";
  expect_error "addi r1, r0, 99999";
  expect_error "dup: halt\ndup: halt"

let test_asm_comments_and_blank_lines () =
  let program = Asm.assemble_exn "# leading comment\n\n  halt ; trailing\n" in
  check_int "one instruction" 1 (Array.length program.instrs)

let test_instr_at () =
  let program = Asm.assemble_exn "addi r1, r0, 1\nhalt" in
  check_bool "first" true (Asm.instr_at program program.base <> None);
  check_bool "past end" true (Asm.instr_at program (program.base + 8) = None);
  check_bool "misaligned" true (Asm.instr_at program (program.base + 2) = None)

(* ------------------------------------------------------------------ *)
(* Binary images                                                       *)
(* ------------------------------------------------------------------ *)

let image_fixture =
  Asm.assemble_exn {|
    start:
      addi r1, r0, 10
      addi r2, r0, 0
    loop:
      add  r2, r2, r1
      addi r1, r1, -1
      bne  r1, r0, loop
      halt
  |}

let test_image_program_roundtrip () =
  let image = Image.of_program image_fixture in
  match Image.to_program image with
  | Error m -> Alcotest.fail m
  | Ok decoded ->
    check_int "same base" image_fixture.base decoded.base;
    check_int "same length" (Array.length image_fixture.instrs)
      (Array.length decoded.instrs);
    Array.iteri
      (fun i instr ->
        check_bool "instruction preserved" true
          (Instr.equal instr decoded.instrs.(i)))
      image_fixture.instrs

let test_image_hex_roundtrip () =
  let image = Image.of_program image_fixture in
  match Image.of_hex (Image.to_hex image) with
  | Error m -> Alcotest.fail m
  | Ok parsed ->
    check_int "base" image.base parsed.base;
    check_bool "words equal" true (image.words = parsed.words)

let test_image_executes_identically () =
  let run program =
    let machine = Exec.create program in
    ignore (Exec.run machine);
    (Exec.reg machine 2, Exec.instructions_retired machine)
  in
  let image = Image.of_program image_fixture in
  match Image.to_program image with
  | Error m -> Alcotest.fail m
  | Ok decoded ->
    check_bool "identical run" true (run image_fixture = run decoded)

let test_image_hex_tolerates_comments () =
  let parsed =
    Image.of_hex "# boot image\n@00002000\n0000000c  # halt\n\n"
  in
  match parsed with
  | Ok { base; words } ->
    check_int "base" 0x2000 base;
    check_int "one word" 1 (Array.length words);
    check_int "word" 0xc words.(0)
  | Error m -> Alcotest.fail m

let test_image_hex_errors () =
  check_bool "bad word" true (Result.is_error (Image.of_hex "zzz"));
  check_bool "late address" true
    (Result.is_error (Image.of_hex "0000000c\n@00001000"))

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let test_disasm_roundtrip () =
  let instr = Instr.Alui { op = Add; rd = 1; rs1 = 2; imm = -5; op_suffix = true } in
  (match Disasm.disassemble (Encode.encode_exn instr) with
   | Ok text -> Alcotest.(check string) "text" "addi.op r1, r2, -5" text
   | Error m -> Alcotest.fail m);
  check_bool "bad word rejected" true (Result.is_error (Disasm.disassemble 31))

let test_disasm_branch_target_annotation () =
  let instr = Instr.Jal { rd = 0; offset = -8 } in
  match Disasm.disassemble ~pc:0x1010 (Encode.encode_exn instr) with
  | Ok text ->
    check_bool "absolute target annotated" true
      (String.length text >= 6
       && String.sub text (String.length text - 6) 6 = "0x1008")
  | Error m -> Alcotest.fail m

let test_disasm_dump_program () =
  let program = Asm.assemble_exn "start:
  addi r1, r0, 1
  j start" in
  let dump = Disasm.dump_program program in
  check_bool "label rendered" true
    (String.length dump > 6 && String.sub dump 0 6 = "start:");
  check_bool "two listed instructions" true
    (List.length (String.split_on_char '\n' (String.trim dump)) = 3)

let prop_disasm_total_on_encodable =
  QCheck.Test.make ~name:"disassembler never fails on encoded instructions"
    ~count:1000 arbitrary_instr (fun instr ->
      match Disasm.disassemble (Encode.encode_exn instr) with
      | Ok _ -> true
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Functional executor                                                 *)
(* ------------------------------------------------------------------ *)

let run_program ?scd ?max_steps source =
  let program = Asm.assemble_exn source in
  let machine = Exec.create ?scd program in
  let reason = Exec.run ?max_steps machine in
  (machine, reason)

let test_exec_arith () =
  let machine, reason =
    run_program
      {|
        addi r1, r0, 21
        add  r2, r1, r1
        sub  r3, r2, r1
        muli r4, r1, 3
        halt
      |}
  in
  Alcotest.(check bool) "halted" true (reason = Exec.Halted);
  check_int "add" 42 (Exec.reg machine 2);
  check_int "sub" 21 (Exec.reg machine 3);
  check_int "mul" 63 (Exec.reg machine 4)

let test_exec_memory () =
  let machine, _ =
    run_program
      {|
        li  r1, 0x1234
        li  r2, 0x8000
        stw r1, 0(r2)
        ldw r3, 0(r2)
        ldb r4, 1(r2)
        halt
      |}
  in
  check_int "word roundtrip" 0x1234 (Exec.reg machine 3);
  check_int "byte extract" 0x12 (Exec.reg machine 4)

let test_exec_loop () =
  let machine, _ =
    run_program
      {|
        addi r1, r0, 10
        addi r2, r0, 0
      loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
      |}
  in
  check_int "sum 10..1" 55 (Exec.reg machine 2)

let test_exec_call_ret () =
  let machine, _ =
    run_program
      {|
        addi r1, r0, 5
        call double
        halt
      double:
        add r1, r1, r1
        ret
      |}
  in
  check_int "doubled" 10 (Exec.reg machine 1)

let test_exec_step_limit () =
  let _, reason = run_program ~max_steps:10 "loop: j loop" in
  Alcotest.(check bool) "hits limit" true (reason = Exec.Step_limit)

let test_exec_decode_fault () =
  let _, reason = run_program "addi r1, r0, 1" (* runs off the end *) in
  match reason with
  | Exec.Decode_fault _ -> ()
  | _ -> Alcotest.fail "expected a fetch fault"

let test_exec_signed_ops () =
  let machine, _ =
    run_program
      {|
        addi r1, r0, -8
        addi r2, r0, 2
        div  r3, r1, r2
        rem  r4, r1, r0
        sra  r5, r1, r2
        slt  r6, r1, r2
        sltu r7, r1, r2
        halt
      |}
  in
  check_int "div" (-4) (Scd_util.Bits.sign_extend (Exec.reg machine 3) ~width:32);
  check_int "rem by zero keeps dividend" (-8)
    (Scd_util.Bits.sign_extend (Exec.reg machine 4) ~width:32);
  check_int "sra" (-2) (Scd_util.Bits.sign_extend (Exec.reg machine 5) ~width:32);
  check_int "slt signed" 1 (Exec.reg machine 6);
  check_int "sltu unsigned" 0 (Exec.reg machine 7)

(* SCD semantics of Table I on the functional executor, with the
   co-simulator's own Lua dispatcher ({!Scd_codegen.Dispatcher}) as the
   interpreter loop: opcode 0's handler counts in r1 and jumps back,
   opcode 1's halts. *)

let scd_dispatcher =
  Scd_codegen.Dispatcher.get Scd_codegen.Spec.rvm Scd_core.Scheme.Scd
    ~overhead:true

(* The dispatcher at address 0, then the two handlers and the default
   handler its bound check branches to. *)
let dispatcher_loop =
  let n = Scd_codegen.Dispatcher.length scd_dispatcher in
  let op_zero = 4 * n and op_halt = 4 * (n + 2) and default = 4 * (n + 3) in
  let dispatcher =
    Scd_codegen.Dispatcher.program scd_dispatcher ~base:0
      ~default_handler:default
  in
  {
    dispatcher with
    Asm.instrs =
      Array.append dispatcher.instrs
        [| Instr.Alui { op = Add; rd = 1; rs1 = 1; imm = 1; op_suffix = false };
           Instr.Jal { rd = 0; offset = -(op_zero + 4) };
           Instr.Halt;
           Instr.Halt |];
    symbols = [ ("op_zero", op_zero); ("op_halt", op_halt); ("default", default) ];
  }

(* The dispatcher's VM state: r20 points at the bytecode pointer, r21 at
   the jump table. *)
let setup_dispatch machine program ~bytecodes =
  Exec.set_reg machine 20 0x3000;
  Exec.set_reg machine 21 0x5000;
  Exec.store_word machine 0x3000 0x4000;
  List.iteri
    (fun i bc -> Exec.store_word machine (0x4000 + (4 * i)) bc)
    bytecodes;
  List.iteri
    (fun i label ->
      Exec.store_word machine (0x5000 + (4 * i))
        (Option.get (Asm.address_of program label)))
    [ "op_zero"; "op_halt" ]

let test_exec_scd_fast_path () =
  let program = dispatcher_loop in
  let btb = Scd_uarch.Btb.create ~entries:16 ~ways:2 ~replacement:Scd_uarch.Btb.Lru () in
  let engine = Scd_core.Engine.create btb in
  let machine = Exec.create ~scd:(Scd_core.Engine.exec_backend engine) program in
  setup_dispatch machine program ~bytecodes:(List.init 50 (fun i -> if i < 49 then 0 else 1));
  Alcotest.(check bool) "halted" true (Exec.run machine = Exec.Halted);
  check_int "all bytecodes executed" 49 (Exec.reg machine 1);
  let stats = Scd_core.Engine.stats engine in
  (* first dispatch misses (no JTE and Rbop-pc unset); later ones hit *)
  Alcotest.(check bool) "mostly hits" true (stats.bop_hits >= 47);
  check_int "one JTE installed for opcode 0 + one for halt" 2 stats.jru_inserts

(* The executor's tape sink speaks the co-simulator's encoding: stepping
   the SCD dispatch loop and draining each retired instruction's cell into
   a pipeline that shares the engine's BTB accounts every instruction, and
   the pipeline's bop/jru statistics agree with the engine's. *)
let test_exec_tape_drives_pipeline () =
  let program = dispatcher_loop in
  let btb = Scd_uarch.Btb.create ~entries:16 ~ways:2 ~replacement:Scd_uarch.Btb.Lru () in
  let engine = Scd_core.Engine.create btb in
  let pipeline = Scd_uarch.Pipeline.create ~btb Scd_uarch.Config.simulator in
  let tape = Event.tape_create () in
  let machine =
    Exec.create ~scd:(Scd_core.Engine.exec_backend engine) ~tape program
  in
  setup_dispatch machine program ~bytecodes:(List.init 50 (fun i -> if i < 49 then 0 else 1));
  let fetch_pc = 4 * scd_dispatcher.fetch in
  let fetches = ref 0 in
  let rec go () =
    let stop = Exec.step machine in
    check_int "one cell per retired instruction" 1 (Event.tape_cells tape);
    if Event.tape_cell_pc tape 0 = fetch_pc then begin
      incr fetches;
      check_int "the fetch is a load" Event.tag_mem_read
        (Event.tape_cell_tag tape 0);
      check_bool "the ldw.op cell sets Rop" true
        ((Event.tape_words tape).(1) land Event.flag_sets_rop <> 0)
    end;
    Scd_uarch.Pipeline.consume_tape pipeline tape;
    Event.tape_clear tape;
    match stop with None -> go () | Some reason -> reason
  in
  Alcotest.(check bool) "halted" true (go () = Exec.Halted);
  let s = Scd_uarch.Pipeline.stats pipeline in
  let e = Scd_core.Engine.stats engine in
  check_int "every retired instruction accounted"
    (Exec.instructions_retired machine) s.instructions;
  check_int "one ldw.op fetch per dispatch" 50 !fetches;
  check_int "one bop per dispatch" 50 s.bop_count;
  check_int "bop hits agree with the engine" e.bop_hits s.bop_hits;
  check_int "jru count agrees with the engine's inserts" e.jru_inserts
    s.jru_count

let test_exec_scd_matches_unbounded () =
  (* the finite-BTB run must produce the same architectural result as the
     unbounded architectural model *)
  let run backend =
    let program = dispatcher_loop in
    let machine = Exec.create ?scd:backend program in
    setup_dispatch machine program ~bytecodes:[ 0; 0; 0; 1 ];
    ignore (Exec.run machine);
    Exec.reg machine 1
  in
  let btb = Scd_uarch.Btb.create ~entries:4 ~ways:2 ~replacement:Scd_uarch.Btb.Lru () in
  let engine = Scd_core.Engine.create btb in
  check_int "same result" (run None)
    (run (Some (Scd_core.Engine.exec_backend engine)))

let test_exec_jte_flush () =
  let machine, _ =
    run_program
      {|
        li r4, 63
        setmask r4
        jte.flush
        halt
      |}
  in
  (* li of 63 fits one instruction: li, setmask, jte.flush, halt *)
  check_int "retired all four" 4 (Exec.instructions_retired machine)

let test_exec_rop_tracking () =
  let program =
    Asm.assemble_exn {|
      li r4, 0xF
      setmask r4
      addi.op r1, r0, 0x73
      halt
    |}
  in
  let machine = Exec.create program in
  ignore (Exec.run machine);
  let d, v = Exec.rop machine in
  check_bool "Rop valid" true v;
  check_int "Rop masked" 3 d

(* ------------------------------------------------------------------ *)
(* Tape run merging                                                     *)
(* ------------------------------------------------------------------ *)

let run_flags dispatch =
  Event.tag_plain_run lor if dispatch then Event.flag_dispatch else 0

(* Every cell of [tape] as its [pc; flags; arg1; arg2] words. *)
let check_cells name expected tape =
  Alcotest.(check (list (list int)))
    name expected
    (List.init (Event.tape_cells tape) (fun i ->
         Array.to_list
           (Array.sub (Event.tape_words tape) (i * Event.cell_words)
              Event.cell_words)))

let test_run_merge_contiguous () =
  let tape = Event.tape_create ~capacity:1 () in
  Event.tape_push_run tape ~pc:0x100 ~dispatch:true ~count:3 ~stride:4;
  Event.tape_push_run tape ~pc:0x10c ~dispatch:true ~count:5 ~stride:4;
  Event.tape_push_run tape ~pc:0x120 ~dispatch:true ~count:1 ~stride:4;
  check_cells "one run of 9" [ [ 0x100; run_flags true; 9; 4 ] ] tape;
  (* a run cell written by a template stamp extends the same way *)
  Event.tape_clear tape;
  ignore
    (Event.tape_blit tape [| 0x200; run_flags false; 2; 12 |] : int);
  Event.tape_push_run tape ~pc:0x218 ~dispatch:false ~count:4 ~stride:12;
  check_cells "stamped run extended" [ [ 0x200; run_flags false; 6; 12 ] ]
    tape

let test_run_merge_boundaries () =
  (* after a dispatch run of 3 from 0x100, stride 4 (next pc 0x10c) *)
  let two_runs name ~pc ~dispatch ~stride =
    let tape = Event.tape_create () in
    Event.tape_push_run tape ~pc:0x100 ~dispatch:true ~count:3 ~stride:4;
    Event.tape_push_run tape ~pc ~dispatch ~count:5 ~stride;
    check_cells name
      [ [ 0x100; run_flags true; 3; 4 ]; [ pc; run_flags dispatch; 5; stride ] ]
      tape
  in
  two_runs "dispatch flag changes" ~pc:0x10c ~dispatch:false ~stride:4;
  two_runs "stride changes" ~pc:0x10c ~dispatch:true ~stride:12;
  two_runs "pc gap" ~pc:0x110 ~dispatch:true ~stride:4;
  two_runs "pc overlap" ~pc:0x108 ~dispatch:true ~stride:4;
  (* a non-run cell before the run: no merge, whatever its payload *)
  let tape = Event.tape_create () in
  Event.tape_push tape ~pc:0x100
    ~flags:(Event.tag_plain lor Event.flag_dispatch) ~arg1:0 ~arg2:(-1);
  Event.tape_push_run tape ~pc:0x104 ~dispatch:true ~count:2 ~stride:4;
  Event.tape_push tape ~pc:0x10c
    ~flags:(Event.tag_mem_read lor Event.flag_dispatch) ~arg1:1 ~arg2:4;
  Event.tape_push_run tape ~pc:0x110 ~dispatch:true ~count:2 ~stride:4;
  check_cells "non-run cells break runs"
    [ [ 0x100; Event.tag_plain lor Event.flag_dispatch; 0; -1 ];
      [ 0x104; run_flags true; 2; 4 ];
      [ 0x10c; Event.tag_mem_read lor Event.flag_dispatch; 1; 4 ];
      [ 0x110; run_flags true; 2; 4 ] ]
    tape

(* A merged run is the same instructions as its two halves: draining it
   must leave the same statistics as the halves drained as two batches.
   The runs cross I-cache blocks and a page, on single issue (aggregate run
   consumption) and dual issue (per-instruction loop). *)
let test_run_merge_drains_identically () =
  List.iter
    (fun (name, config) ->
      let halves = [ (0x1fd0, 10); (0x1ff8, 25) ] in
      let merged = Scd_uarch.Pipeline.create config in
      let tape = Event.tape_create () in
      List.iter
        (fun (pc, count) ->
          Event.tape_push_run tape ~pc ~dispatch:false ~count ~stride:4)
        halves;
      check_int (name ^ ": merged into one cell") 1 (Event.tape_cells tape);
      Scd_uarch.Pipeline.consume_tape merged tape;
      let split = Scd_uarch.Pipeline.create config in
      List.iter
        (fun (pc, count) ->
          Event.tape_clear tape;
          Event.tape_push_run tape ~pc ~dispatch:false ~count ~stride:4;
          Scd_uarch.Pipeline.consume_tape split tape)
        halves;
      let assoc p = Scd_uarch.Stats.to_assoc (Scd_uarch.Pipeline.stats p) in
      Alcotest.(check (list (pair string int)))
        (name ^ ": same statistics") (assoc split) (assoc merged))
    [ ("single issue", Scd_uarch.Config.simulator);
      ("dual issue", Scd_uarch.Config.high_end) ]

let () =
  Alcotest.run "scd_isa"
    [
      ( "instr",
        [
          Alcotest.test_case "validate ranges" `Quick test_validate_ranges;
          Alcotest.test_case "mnemonics" `Quick test_mnemonics;
          Alcotest.test_case "scd extension" `Quick test_is_scd_extension;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_encode_decode_roundtrip;
          QCheck_alcotest.to_alcotest prop_encoded_fits_32_bits;
          Alcotest.test_case "bad major" `Quick test_decode_bad_major;
          Alcotest.test_case "rejects invalid" `Quick test_encode_rejects_invalid;
        ] );
      ( "asm",
        [
          Alcotest.test_case "basic" `Quick test_asm_basic;
          Alcotest.test_case "branch labels" `Quick test_asm_branch_labels;
          Alcotest.test_case "li expansion" `Quick test_asm_li_expansion;
          Alcotest.test_case "label after li" `Quick test_asm_label_after_li;
          Alcotest.test_case "scd instructions" `Quick test_asm_scd_instructions;
          Alcotest.test_case "la pseudo" `Quick test_asm_la_pseudo;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "comments" `Quick test_asm_comments_and_blank_lines;
          Alcotest.test_case "instr_at" `Quick test_instr_at;
        ] );
      ( "image",
        [
          Alcotest.test_case "program roundtrip" `Quick test_image_program_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_image_hex_roundtrip;
          Alcotest.test_case "executes identically" `Quick test_image_executes_identically;
          Alcotest.test_case "hex comments" `Quick test_image_hex_tolerates_comments;
          Alcotest.test_case "hex errors" `Quick test_image_hex_errors;
        ] );
      ( "disasm",
        [
          Alcotest.test_case "roundtrip" `Quick test_disasm_roundtrip;
          Alcotest.test_case "target annotation" `Quick test_disasm_branch_target_annotation;
          Alcotest.test_case "dump program" `Quick test_disasm_dump_program;
          QCheck_alcotest.to_alcotest prop_disasm_total_on_encodable;
        ] );
      ( "exec",
        [
          Alcotest.test_case "arith" `Quick test_exec_arith;
          Alcotest.test_case "memory" `Quick test_exec_memory;
          Alcotest.test_case "loop" `Quick test_exec_loop;
          Alcotest.test_case "call/ret" `Quick test_exec_call_ret;
          Alcotest.test_case "step limit" `Quick test_exec_step_limit;
          Alcotest.test_case "decode fault" `Quick test_exec_decode_fault;
          Alcotest.test_case "signed ops" `Quick test_exec_signed_ops;
          Alcotest.test_case "scd fast path" `Quick test_exec_scd_fast_path;
          Alcotest.test_case "tape drives pipeline" `Quick test_exec_tape_drives_pipeline;
          Alcotest.test_case "scd matches unbounded" `Quick test_exec_scd_matches_unbounded;
          Alcotest.test_case "jte flush" `Quick test_exec_jte_flush;
          Alcotest.test_case "rop tracking" `Quick test_exec_rop_tracking;
        ] );
      ( "tape",
        [
          Alcotest.test_case "run merges a contiguous run" `Quick
            test_run_merge_contiguous;
          Alcotest.test_case "run merge boundaries" `Quick
            test_run_merge_boundaries;
          Alcotest.test_case "merged run drains identically" `Quick
            test_run_merge_drains_identically;
        ] );
    ]
