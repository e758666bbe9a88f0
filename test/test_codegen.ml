open Scd_codegen
open Scd_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?(spec = Spec.rvm) ?(scheme = Scheme.Baseline) () =
  Layout.build ~spec ~scheme ~fn_code_sizes:[| 400; 120 |]
    ~fn_const_counts:[| 10; 4 |]

(* ------------------------------------------------------------------ *)
(* Spec invariants                                                     *)
(* ------------------------------------------------------------------ *)

let test_dispatch_sizes_match_paper () =
  (* Section V quotes static loop sizes of 35 (Lua) and 29 (SpiderMonkey)
     native instructions; the executed per-iteration path modelled here is
     roughly half of each (the rest is cold/bound-check slack), and the
     register VM's path must be the longer one. *)
  check_int "lua executed dispatch" 17 (Spec.dispatch_total Spec.rvm.dispatch);
  check_int "js executed dispatch" 15 (Spec.dispatch_total Spec.svm.dispatch);
  check_bool "lua longer than js" true
    (Spec.dispatch_total Spec.rvm.dispatch > Spec.dispatch_total Spec.svm.dispatch)

let test_scd_removable_positive () =
  check_bool "lua removable band" true
    (Spec.scd_removable Spec.rvm.dispatch >= 5
     && Spec.scd_removable Spec.rvm.dispatch <= 14);
  check_bool "js removable band" true
    (Spec.scd_removable Spec.svm.dispatch >= 5
     && Spec.scd_removable Spec.svm.dispatch <= 14)

let test_profile_opcode_spaces () =
  check_int "plain rvm excludes fused handlers" 30 Spec.rvm.num_opcodes;
  check_int "fused build includes them" 34 Spec.rvm_fused.num_opcodes;
  check_int "replicated build adds replicas" 42 Spec.rvm_replicated.num_opcodes;
  (* a replica's handler mirrors its base *)
  let base = Spec.rvm_replicated.handler 0 in
  let replica = Spec.rvm_replicated.handler 34 in
  check_int "replica handler mirrors base" base.body_instrs replica.body_instrs

let test_every_opcode_has_a_handler () =
  List.iter
    (fun (spec : Spec.t) ->
      for op = 0 to spec.num_opcodes - 1 do
        let h = spec.handler op in
        check_bool "positive body" true (h.body_instrs > 0);
        (match h.rt_call with
         | Some blob -> check_bool "blob exists" true (blob < Array.length spec.blobs)
         | None -> ());
        check_bool "named" true (String.length (spec.opcode_name op) > 0)
      done)
    [ Spec.rvm; Spec.rvm_fused; Spec.rvm_replicated; Spec.svm ]

let test_builtin_blobs_cover_all_builtins () =
  for builtin = 0 to Scd_runtime.Builtins.count - 1 do
    let b = Spec.rvm.builtin_blob builtin in
    check_bool "positive size" true (b.body_instrs > 0);
    check_int "id offset" (1000 + builtin) b.blob_id
  done

let test_svm_dispatch_sites_partition () =
  let sites = Hashtbl.create 4 in
  for op = 0 to Spec.svm.num_opcodes - 1 do
    let s = Spec.svm.dispatch_site op in
    Hashtbl.replace sites s ()
  done;
  check_int "all three sites used" 3 (Hashtbl.length sites);
  (* the register VM has only the common site *)
  for op = 0 to Spec.rvm.num_opcodes - 1 do
    check_bool "rvm is single-site" true (Spec.rvm.dispatch_site op = `Common)
  done

(* ------------------------------------------------------------------ *)
(* Layout invariants                                                   *)
(* ------------------------------------------------------------------ *)

let test_handlers_disjoint () =
  let layout = build () in
  let spec = Spec.rvm in
  (* handler regions must not overlap: entry_i + extent <= entry_{i+1} *)
  let entries =
    List.init spec.num_opcodes (fun op -> Layout.handler_entry layout op)
    |> List.sort compare
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      check_bool "strictly increasing" true (a < b);
      check rest
    | _ -> ()
  in
  check entries

let test_tail_after_body () =
  let layout = build () in
  for op = 0 to Spec.rvm.num_opcodes - 1 do
    check_bool "call site after entry" true
      (Layout.handler_call_site layout op > Layout.handler_entry layout op);
    check_bool "tail at or after call site" true
      (Layout.handler_tail layout op >= Layout.handler_call_site layout op)
  done

let test_jump_threading_is_bigger () =
  let base = build ~scheme:Scheme.Baseline () in
  let jt = build ~scheme:Scheme.Jump_threading () in
  check_bool "replicated dispatchers grow the image" true
    (Layout.code_bytes jt > Layout.code_bytes base)

let test_scd_code_size_close_to_baseline () =
  let base = build ~scheme:Scheme.Baseline () in
  let scd = build ~scheme:Scheme.Scd () in
  (* SCD adds only bop+jru to the dispatcher block *)
  check_bool "within a handful of instructions" true
    (abs (Layout.code_bytes scd - Layout.code_bytes base) <= 64)

let test_jump_table_addresses () =
  let layout = build () in
  check_int "stride 4" 4
    (Layout.jump_table_entry layout 1 - Layout.jump_table_entry layout 0);
  check_bool "outside code" true
    (Layout.jump_table_entry layout 0 > Layout.handler_entry layout (Spec.rvm.num_opcodes - 1))

let test_bytecode_addresses_per_function () =
  let layout = build () in
  let fn0 = Layout.bytecode_addr layout ~fn:0 ~pc:0 in
  let fn1 = Layout.bytecode_addr layout ~fn:1 ~pc:0 in
  check_int "fn1 starts after fn0's 400 bytes" 400 (fn1 - fn0);
  check_int "pc offsets add" 12 (Layout.bytecode_addr layout ~fn:0 ~pc:12 - fn0)

let test_access_addresses_disjoint_regions () =
  let layout = build () in
  let addr a = fst (Layout.access_addr layout a) in
  let reg = addr (Scd_runtime.Trace.Reg { slot = 3; write = false }) in
  let const = addr (Scd_runtime.Trace.Const { fn = 0; index = 2 }) in
  let global = addr (Scd_runtime.Trace.Global { name_hash = 7; write = true }) in
  let table = addr (Scd_runtime.Trace.Table_slot { id = 5; slot = 2; write = false }) in
  let str = addr (Scd_runtime.Trace.Str_bytes { id_hash = 9; offset = 3 }) in
  let sorted = List.sort compare [ reg; const; global; table; str ] in
  check_int "five distinct regions" 5 (List.length (List.sort_uniq compare sorted));
  (* write flags propagate *)
  check_bool "write flag" true
    (snd (Layout.access_addr layout (Scd_runtime.Trace.Global { name_hash = 1; write = true })))

let test_site_bases () =
  let rvm_layout = build () in
  let svm_layout = build ~spec:Spec.svm () in
  (* register VM: every site resolves to the common block *)
  check_int "rvm call site = common"
    (Layout.site_base rvm_layout Layout.Common_site)
    (Layout.site_base rvm_layout Layout.Call_site);
  (* stack VM: three distinct blocks *)
  check_bool "svm call site distinct" true
    (Layout.site_base svm_layout Layout.Call_site
     <> Layout.site_base svm_layout Layout.Common_site);
  check_bool "svm branch site distinct" true
    (Layout.site_base svm_layout Layout.Branch_site
     <> Layout.site_base svm_layout Layout.Call_site);
  (* placement, not just distinctness: moving a block moves BTB aliasing,
     and with it the figures *)
  check_bool "svm branch-tail block below call-tail block" true
    (Layout.site_base svm_layout Layout.Branch_site
     < Layout.site_base svm_layout Layout.Call_site)

let test_blob_entries_resolvable () =
  let layout = build () in
  Array.iteri
    (fun i _ ->
      check_bool "blob entry in code region" true (Layout.blob_entry layout i > 0))
    Spec.rvm.blobs;
  for builtin = 0 to Scd_runtime.Builtins.count - 1 do
    check_bool "builtin entry in code region" true
      (Layout.builtin_entry layout builtin > 0)
  done;
  Alcotest.check_raises "unknown blob"
    (Invalid_argument "Layout.blob_entry: unknown blob 999") (fun () ->
      ignore (Layout.blob_entry layout 999))

(* The per-opcode tables [Layout.build] precomputes for the driver's
   per-bytecode path must answer exactly what the spec's closures and
   [Layout.site_base] do: every frontend's specs, every scheme, every
   opcode, and every builtin's blob record. *)
let test_derived_tables_match_spec () =
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun scheme ->
          let layout = build ~spec ~scheme () in
          let name what op =
            Printf.sprintf "%s/%s %s %d" spec.name (Scheme.name scheme) what op
          in
          for op = 0 to spec.num_opcodes - 1 do
            let site =
              match spec.dispatch_site op with
              | `Common -> Layout.Common_site
              | `Call_tail -> Layout.Call_site
              | `Branch_tail -> Layout.Branch_site
            in
            check_bool (name "next site of op" op) true
              (Layout.site_of_opcode layout op = site);
            check_int (name "tail target of op" op)
              (Layout.site_base layout site)
              (Layout.tail_target layout op);
            check_bool (name "handler spec of op" op) true
              (Layout.handler layout op = spec.handler op)
          done;
          for builtin = 0 to Scd_runtime.Builtins.count - 1 do
            check_bool (name "blob record of builtin" builtin) true
              (Layout.builtin_blob layout builtin = spec.builtin_blob builtin)
          done)
        Scheme.all)
    [ Spec.rvm; Spec.rvm_fused; Spec.rvm_replicated; Spec.svm ]

let prop_handler_entries_aligned =
  QCheck.Test.make ~name:"handler entries are word-aligned" ~count:50
    QCheck.(int_bound (Spec.rvm.num_opcodes - 1))
    (fun op ->
      let layout = build () in
      Layout.handler_entry layout op mod 4 = 0
      && Layout.handler_tail layout op mod 4 = 0)

let () =
  Alcotest.run "scd_codegen"
    [
      ( "spec",
        [
          Alcotest.test_case "dispatch sizes" `Quick test_dispatch_sizes_match_paper;
          Alcotest.test_case "scd removable" `Quick test_scd_removable_positive;
          Alcotest.test_case "profile opcode spaces" `Quick test_profile_opcode_spaces;
          Alcotest.test_case "handler coverage" `Quick test_every_opcode_has_a_handler;
          Alcotest.test_case "builtin blobs" `Quick test_builtin_blobs_cover_all_builtins;
          Alcotest.test_case "dispatch sites" `Quick test_svm_dispatch_sites_partition;
        ] );
      ( "layout",
        [
          Alcotest.test_case "handlers disjoint" `Quick test_handlers_disjoint;
          Alcotest.test_case "tail after body" `Quick test_tail_after_body;
          Alcotest.test_case "jt bloat" `Quick test_jump_threading_is_bigger;
          Alcotest.test_case "scd size" `Quick test_scd_code_size_close_to_baseline;
          Alcotest.test_case "jump table" `Quick test_jump_table_addresses;
          Alcotest.test_case "bytecode addresses" `Quick test_bytecode_addresses_per_function;
          Alcotest.test_case "access regions" `Quick test_access_addresses_disjoint_regions;
          Alcotest.test_case "site bases" `Quick test_site_bases;
          Alcotest.test_case "blob entries" `Quick test_blob_entries_resolvable;
          Alcotest.test_case "derived tables" `Quick test_derived_tables_match_spec;
          QCheck_alcotest.to_alcotest prop_handler_entries_aligned;
        ] );
    ]
