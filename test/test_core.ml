open Scd_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh_btb ?(entries = 64) ?(ways = 2) ?jte_cap () =
  Scd_uarch.Btb.create ~entries ~ways ~replacement:Scd_uarch.Btb.Lru ?jte_cap ()

(* ------------------------------------------------------------------ *)
(* Scheme                                                              *)
(* ------------------------------------------------------------------ *)

let test_scheme_names_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "roundtrip" true
        (Scheme.of_string (Scheme.name s) = Some s))
    Scheme.all;
  check_bool "jt alias" true (Scheme.of_string "jt" = Some Scheme.Jump_threading);
  check_bool "unknown" true (Scheme.of_string "nope" = None)

let test_scheme_indirect () =
  check_bool "vbbi uses vbbi" true
    (Scheme.indirect_scheme Scheme.Vbbi = Scd_uarch.Indirect.Vbbi);
  check_bool "scd uses pc-btb" true
    (Scheme.indirect_scheme Scheme.Scd = Scd_uarch.Indirect.Pc_btb)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_miss_then_hit () =
  let engine = Engine.create (fresh_btb ()) in
  check_int "cold miss" Engine.no_target (Engine.bop_target engine ~table:0 ~opcode:5);
  Engine.jru_code engine ~table:0 ~opcode:5 ~target:0x1234;
  check_int "hit after jru" 0x1234 (Engine.bop_target engine ~table:0 ~opcode:5)

let test_engine_invalid_rop_jru_is_noop () =
  let engine = Engine.create (fresh_btb ()) in
  Engine.jru_code engine ~table:0 ~opcode:(-1) ~target:0x1234;
  check_int "nothing inserted" 0 (Engine.jte_population engine);
  check_int "no insert recorded" 0 (Engine.stats engine).jru_inserts

let test_engine_flush () =
  let engine = Engine.create (fresh_btb ()) in
  Engine.jru_code engine ~table:0 ~opcode:1 ~target:0x10;
  Engine.jru_code engine ~table:0 ~opcode:2 ~target:0x20;
  Engine.jte_flush engine;
  check_int "flushed" 0 (Engine.jte_population engine);
  check_int "miss after flush" Engine.no_target (Engine.bop_target engine ~table:0 ~opcode:1)

let test_engine_multiple_tables_isolated () =
  let engine = Engine.create ~tables:4 (fresh_btb ~entries:256 ()) in
  Engine.jru_code engine ~table:0 ~opcode:7 ~target:0x100;
  Engine.jru_code engine ~table:3 ~opcode:7 ~target:0x300;
  check_int "table 0" 0x100 (Engine.bop_target engine ~table:0 ~opcode:7);
  check_int "table 3" 0x300 (Engine.bop_target engine ~table:3 ~opcode:7);
  check_int "table 1 empty" Engine.no_target (Engine.bop_target engine ~table:1 ~opcode:7)

let test_engine_table_bounds () =
  let engine = Engine.create ~tables:2 (fresh_btb ()) in
  Alcotest.check_raises "out of range" (Invalid_argument "Engine: branch ID 2 out of range")
    (fun () -> ignore (Engine.bop_target engine ~table:2 ~opcode:0))

let test_engine_opcode_bounds () =
  let engine = Engine.create (fresh_btb ()) in
  Alcotest.check_raises "opcode range"
    (Invalid_argument "Engine: opcode 1024 out of range") (fun () ->
      ignore (Engine.bop_target engine ~table:0 ~opcode:1024))

let test_engine_context_switch_flush () =
  let engine = Engine.create (fresh_btb ()) in
  Engine.jru_code engine ~table:0 ~opcode:1 ~target:0x10;
  check_int "resident before the switch" 1 (Engine.jte_population engine);
  Engine.context_switch engine;
  check_int "flushed by the switch" 0 (Engine.jte_population engine);
  check_int "context switch recorded" 1 (Engine.stats engine).context_switch_flushes;
  check_int "counted as a JTE flush" 1 (Engine.stats engine).flushes

let test_engine_respects_btb_cap () =
  let engine = Engine.create (fresh_btb ~entries:64 ~jte_cap:4 ()) in
  for opcode = 0 to 15 do
    Engine.jru_code engine ~table:0 ~opcode ~target:(0x100 + opcode)
  done;
  check_bool "population bounded" true (Engine.jte_population engine <= 4)

let test_engine_stats () =
  let engine = Engine.create (fresh_btb ()) in
  ignore (Engine.bop_target engine ~table:0 ~opcode:1);
  Engine.jru_code engine ~table:0 ~opcode:1 ~target:2;
  ignore (Engine.bop_target engine ~table:0 ~opcode:1);
  let s = Engine.stats engine in
  check_int "lookups" 2 s.bop_lookups;
  check_int "hits" 1 s.bop_hits;
  check_int "inserts" 1 s.jru_inserts

let test_engine_exec_backend () =
  let engine = Engine.create (fresh_btb ()) in
  let backend = Engine.exec_backend engine in
  check_bool "miss" true (backend.bop_lookup ~opcode:9 = None);
  backend.jru_insert ~opcode:9 ~target:0xAA0;
  check_bool "hit" true (backend.bop_lookup ~opcode:9 = Some 0xAA0);
  backend.jte_flush ();
  check_bool "flushed" true (backend.bop_lookup ~opcode:9 = None)

let prop_engine_tables_never_collide =
  QCheck.Test.make ~name:"distinct (table, opcode) pairs never alias" ~count:200
    QCheck.(small_list (pair (int_bound 3) (int_bound 63)))
    (fun pairs ->
      let engine = Engine.create ~tables:4 (fresh_btb ~entries:1024 ~ways:4 ()) in
      let expected = Hashtbl.create 16 in
      List.iter
        (fun (table, opcode) ->
          let target = 0x1000 + (table * 0x100) + opcode in
          Engine.jru_code engine ~table ~opcode ~target;
          Hashtbl.replace expected (table, opcode) target)
        pairs;
      Hashtbl.fold
        (fun (table, opcode) target acc ->
          acc && Engine.bop_target engine ~table ~opcode = target)
        expected true)

let () =
  Alcotest.run "scd_core"
    [
      ( "scheme",
        [
          Alcotest.test_case "names" `Quick test_scheme_names_roundtrip;
          Alcotest.test_case "indirect" `Quick test_scheme_indirect;
        ] );
      ( "engine",
        [
          Alcotest.test_case "miss then hit" `Quick test_engine_miss_then_hit;
          Alcotest.test_case "invalid rop" `Quick test_engine_invalid_rop_jru_is_noop;
          Alcotest.test_case "flush" `Quick test_engine_flush;
          Alcotest.test_case "multiple tables" `Quick test_engine_multiple_tables_isolated;
          Alcotest.test_case "table bounds" `Quick test_engine_table_bounds;
          Alcotest.test_case "opcode bounds" `Quick test_engine_opcode_bounds;
          Alcotest.test_case "context switch" `Quick test_engine_context_switch_flush;
          Alcotest.test_case "btb cap" `Quick test_engine_respects_btb_cap;
          Alcotest.test_case "stats" `Quick test_engine_stats;
          Alcotest.test_case "exec backend" `Quick test_engine_exec_backend;
          QCheck_alcotest.to_alcotest prop_engine_tables_never_collide;
        ] );
    ]
