type rt_blob = { blob_id : int; body_instrs : int; load_every : int }

type handler_spec = {
  body_instrs : int;
  ctrl_branch : bool;
  rt_call : int option;
}

type dispatch_costs = {
  fetch_instrs : int;
  operand_decode_instrs : int;
  decode_instrs : int;
  bound_check_instrs : int;
  target_calc_instrs : int;
  loop_overhead_instrs : int;
}

type t = {
  name : string;
  num_opcodes : int;
  opcode_name : int -> string;
  dispatch : dispatch_costs;
  handler : int -> handler_spec;
  blobs : rt_blob array;
  builtin_blob : int -> rt_blob;
  dispatch_site : int -> [ `Common | `Call_tail | `Branch_tail ];
}

let plain body_instrs = { body_instrs; ctrl_branch = false; rt_call = None }
let branchy body_instrs = { body_instrs; ctrl_branch = true; rt_call = None }
let helper body_instrs blob = { body_instrs; ctrl_branch = false; rt_call = Some blob }

(* Shared runtime-helper blob shapes; ids are per-profile indices. *)
let blob id body load_every = { blob_id = id; body_instrs = body; load_every }

(* Builtin library routines (by builtin id, see Scd_runtime.Builtins.all).
   Offsets above 1000 keep their blob ids clear of the VM helper blobs. *)
let builtin_sizes =
  [| (* print *) 220, 3; (* write *) 160, 3; (* tostring *) 150, 3;
     (* sqrt *) 45, 5; (* floor *) 30, 5; (* ceil *) 30, 5; (* abs *) 25, 5;
     (* min *) 30, 4; (* max *) 30, 4; (* exp *) 90, 6; (* log *) 90, 6;
     (* pow *) 110, 6; (* random *) 60, 5; (* randomseed *) 30, 5;
     (* len *) 25, 4; (* strlen *) 22, 4; (* sub *) 80, 3; (* byte *) 30, 4;
     (* char *) 60, 3; (* float *) 20, 5; (* clock *) 25, 5 |]

let builtin_blob id =
  let body, load_every =
    if id >= 0 && id < Array.length builtin_sizes then builtin_sizes.(id)
    else (80, 4)
  in
  blob (1000 + id) body load_every

(* ------------------------------------------------------------------ *)
(* Register VM (Lua-like).                                              *)
(*                                                                      *)
(* Calibration targets (paper Sections II and VI, Lua columns):         *)
(*   - dispatcher code is >25% of dynamic instructions (Figure 3);      *)
(*   - SCD removes ~10% of dynamic instructions (Figure 8, Table IV);   *)
(*   - jump threading removes ~5% (Table IV);                           *)
(*   - the dispatch indirect jump dominates branch MPKI (Figure 2),     *)
(*     which requires ~50-60 native instructions per bytecode.          *)
(* The static dispatch loop is larger (35 instructions, Section V); the *)
(* costs below are the per-iteration *executed* path.                   *)
(* ------------------------------------------------------------------ *)

let rvm_blobs =
  [| blob 0 28 3;  (* global hash lookup *)
     blob 1 30 3;  (* table get *)
     blob 2 36 3;  (* table set *)
     blob 3 70 4;  (* table allocation *)
     blob 4 90 4;  (* string concat + intern *)
     blob 5 45 4;  (* call frame setup *)
     blob 6 28 4   (* return teardown *) |]

let rvm_handler op =
  match op with
  | 0 (* MOVE *) -> plain 14
  | 1 (* LOADK *) -> plain 12
  | 2 (* LOADINT *) -> plain 10
  | 3 (* LOADBOOL *) -> plain 10
  | 4 (* LOADNIL *) -> plain 9
  | 5 (* GETGLOBAL *) -> helper 26 0
  | 6 (* SETGLOBAL *) -> helper 26 0
  | 7 (* GETTABLE *) -> helper 36 1
  | 8 (* SETTABLE *) -> helper 40 2
  | 9 (* NEWTABLE *) -> helper 22 3
  | 10 (* ADD *) -> plain 34
  | 11 (* SUB *) -> plain 34
  | 12 (* MUL *) -> plain 34
  | 13 (* DIV *) -> plain 38
  | 14 (* IDIV *) -> plain 42
  | 15 (* MOD *) -> plain 42
  | 16 (* UNM *) -> plain 20
  | 17 (* NOT *) -> plain 14
  | 18 (* LEN *) -> plain 22
  | 19 (* CONCAT *) -> helper 36 4
  | 20 (* JMP *) -> plain 8
  | 21 (* EQ *) -> branchy 32
  | 22 (* LT *) -> branchy 28
  | 23 (* LE *) -> branchy 28
  | 24 (* TEST *) -> branchy 15
  | 25 (* CALL *) -> helper 54 5
  | 26 (* RETURN *) -> helper 40 6
  | 27 (* CLOSURE *) -> plain 20
  | 28 (* FORPREP *) -> plain 32
  | 29 (* FORLOOP *) -> branchy 22
  (* fused superinstructions: roughly the test body plus the jump *)
  | 30 (* EQJMP *) -> branchy 36
  | 31 (* LTJMP *) -> branchy 32
  | 32 (* LEJMP *) -> branchy 32
  | 33 (* TESTJMP *) -> branchy 19
  | _ -> plain 20

let rvm =
  {
    name = "rvm";
    (* the plain interpreter binary has no fused-opcode handlers *)
    num_opcodes = Scd_rvm.Bytecode.num_opcodes_base;
    opcode_name = Scd_rvm.Bytecode.opcode_name;
    dispatch =
      {
        fetch_instrs = 4;
        operand_decode_instrs = 4;
        decode_instrs = 1;
        bound_check_instrs = 2;
        target_calc_instrs = 3;
        loop_overhead_instrs = 2;
      };
    handler = rvm_handler;
    blobs = rvm_blobs;
    builtin_blob;
    dispatch_site = (fun _ -> `Common);
  }

(* The superinstruction build adds the four fused compare-and-branch
   handlers to the image. *)
let rvm_fused =
  { rvm with name = "rvm-fused"; num_opcodes = Scd_rvm.Bytecode.num_opcodes }

(* The bytecode-replication variant: replicas get handler clones of their
   base opcode (real replication duplicates the handler code, which is
   exactly the I-cache cost the technique trades for prediction). *)
let rvm_replicated =
  {
    rvm with
    name = "rvm-replicated";
    num_opcodes = Scd_rvm.Bytecode.num_opcodes_replicated;
    handler =
      (fun op ->
        match Scd_rvm.Bytecode.base_of_replica op with
        | Some base -> rvm_handler base
        | None -> rvm_handler op);
  }

(* ------------------------------------------------------------------ *)
(* Stack VM (SpiderMonkey-like): smaller handlers but more bytecodes    *)
(* per unit of work, and replicated fetch sites at call/branch tails.   *)
(* Jump threading saves more here (13.8% in the paper) because the      *)
(* shared dispatcher's loop overhead is a larger share of each          *)
(* (shorter) bytecode.                                                  *)
(* ------------------------------------------------------------------ *)

let svm_blobs =
  [| blob 0 26 3;  (* global/property lookup *)
     blob 1 28 3;  (* element get *)
     blob 2 34 3;  (* element set *)
     blob 3 64 4;  (* object allocation *)
     blob 4 84 4;  (* string concat *)
     blob 5 40 4;  (* call frame push *)
     blob 6 26 4   (* frame pop *) |]

let svm_handler op =
  let open Scd_svm.Bytecode in
  match op_of_opcode op with
  | NOP -> plain 6
  | PUSH_NIL | PUSH_TRUE | PUSH_FALSE -> plain 8
  | PUSH_INT8 -> plain 10
  | PUSH_INT32 -> plain 12
  | PUSH_CONST -> plain 12
  | GET_LOCAL | SET_LOCAL -> plain 10
  | GET_GLOBAL | SET_GLOBAL -> helper 24 0
  | GET_ELEM -> helper 34 1
  | SET_ELEM -> helper 38 2
  | NEW_OBJ -> helper 18 3
  | ADD | SUB | MUL -> plain 28
  | DIV -> plain 32
  | IDIV | MOD -> plain 36
  | NEG -> plain 16
  | NOT_OP -> plain 12
  | LEN_OP -> plain 18
  | CONCAT -> helper 30 4
  | EQ | NE -> plain 26
  | LT_OP | LE_OP | GT_OP | GE_OP -> plain 24
  | JUMP -> plain 6
  | JUMP_IF_FALSE | JUMP_IF_TRUE -> branchy 13
  | CALL -> helper 48 5
  | RETURN_VAL -> helper 36 6
  | RETURN_NIL -> helper 34 6
  | CLOSURE -> plain 15
  | POP -> plain 5
  | DUP -> plain 7

let svm =
  {
    name = "svm";
    num_opcodes = Scd_svm.Bytecode.num_opcodes;
    opcode_name = (fun op -> Scd_svm.Bytecode.(op_name (op_of_opcode op)));
    dispatch =
      {
        fetch_instrs = 3;
        operand_decode_instrs = 0;
        decode_instrs = 1;
        bound_check_instrs = 2;
        target_calc_instrs = 3;
        loop_overhead_instrs = 5;
      };
    handler = svm_handler;
    blobs = svm_blobs;
    builtin_blob;
    dispatch_site =
      (fun op ->
        Scd_svm.Bytecode.(
          match dispatch_site_of (op_of_opcode op) with
          | Common -> `Common
          | Call_tail -> `Call_tail
          | Branch_tail -> `Branch_tail));
  }
