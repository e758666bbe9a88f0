open Scd_util

type scd_backend = {
  bop_lookup : opcode:int -> int option;
  jru_insert : opcode:int -> target:int -> unit;
  jte_flush : unit -> unit;
}

let unbounded_backend () =
  let table : (int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    bop_lookup = (fun ~opcode -> Hashtbl.find_opt table opcode);
    jru_insert = (fun ~opcode ~target -> Hashtbl.replace table opcode target);
    jte_flush = (fun () -> Hashtbl.reset table);
  }

type t = {
  program : Asm.program;
  regs : int array;
  memory : (int, int) Hashtbl.t; (* byte address -> byte *)
  scd : scd_backend;
  tape : Event.tape option;
  mutable pc : int;
  mutable halted : bool;
  mutable retired : int;
  (* SCD architectural registers *)
  mutable rop_d : int;
  mutable rop_v : bool;
  mutable rmask : int;
  mutable rbop_pc : int; (* -1 when unset *)
}

let word_mask = 0xFFFFFFFF

let create ?scd ?tape program =
  let scd = match scd with Some s -> s | None -> unbounded_backend () in
  {
    program;
    regs = Array.make 32 0;
    memory = Hashtbl.create 1024;
    scd;
    tape;
    pc = program.base;
    halted = false;
    retired = 0;
    rop_d = 0;
    rop_v = false;
    rmask = word_mask;
    rbop_pc = -1;
  }

let reg t r = t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v land word_mask
let pc t = t.pc
let halted t = t.halted
let instructions_retired t = t.retired
let rop t = (t.rop_d, t.rop_v)
let rmask t = t.rmask

let load_byte t addr = Option.value ~default:0 (Hashtbl.find_opt t.memory addr)
let store_byte t addr v = Hashtbl.replace t.memory addr (v land 0xFF)

let load_width t width addr =
  match width with
  | Instr.Byte -> load_byte t addr
  | Half -> load_byte t addr lor (load_byte t (addr + 1) lsl 8)
  | Word ->
    load_byte t addr
    lor (load_byte t (addr + 1) lsl 8)
    lor (load_byte t (addr + 2) lsl 16)
    lor (load_byte t (addr + 3) lsl 24)

let store_width t width addr v =
  match width with
  | Instr.Byte -> store_byte t addr v
  | Half ->
    store_byte t addr v;
    store_byte t (addr + 1) (v lsr 8)
  | Word ->
    store_byte t addr v;
    store_byte t (addr + 1) (v lsr 8);
    store_byte t (addr + 2) (v lsr 16);
    store_byte t (addr + 3) (v lsr 24)

let load_word t addr = load_width t Word addr
let store_word t addr v = store_width t Word addr v

let signed v = Bits.sign_extend v ~width:32

let alu_eval op a b =
  let open Instr in
  let result =
    match op with
    | Add -> a + b
    | Sub -> a - b
    | And -> a land b
    | Or -> a lor b
    | Xor -> a lxor b
    | Sll -> a lsl (b land 31)
    | Srl -> (a land word_mask) lsr (b land 31)
    | Sra -> signed a asr (b land 31)
    | Slt -> if signed a < signed b then 1 else 0
    | Sltu -> if a land word_mask < b land word_mask then 1 else 0
    | Mul -> a * b
    | Div -> if b = 0 then -1 else signed a / signed b
    | Rem -> if b = 0 then a else signed a mod signed b
  in
  result land word_mask

type stop_reason = Halted | Step_limit | Decode_fault of { pc : int }

let latch_rop t result =
  t.rop_d <- result land t.rmask;
  t.rop_v <- true

(* Report one retired instruction as a tape cell; nothing is built when no
   tape is attached. *)
let emit t ~pc ~flags ~arg1 ~arg2 =
  match t.tape with
  | Some tape -> Event.tape_push tape ~pc ~flags ~arg1 ~arg2
  | None -> ()

let emit_plain t ~sets_rop pc =
  emit t ~pc
    ~flags:(Event.tag_plain lor if sets_rop then Event.flag_sets_rop else 0)
    ~arg1:0 ~arg2:(-1)

(* A jalr's cell tag: RISC-V-style conventions with r31 as the link
   register. *)
let indirect_flags ~rd ~base =
  if rd = 31 then Event.tag_call lor Event.flag_indirect
  else if rd = 0 && base = 31 then Event.tag_return
  else Event.tag_ind_jump

let step t : stop_reason option =
  if t.halted then Some Halted
  else
    match Asm.instr_at t.program t.pc with
    | None -> Some (Decode_fault { pc = t.pc })
    | Some instr ->
      let pc = t.pc in
      let next = pc + 4 in
      t.retired <- t.retired + 1;
      (match instr with
       | Alu { op; rd; rs1; rs2; op_suffix } ->
         let result = alu_eval op t.regs.(rs1) t.regs.(rs2) in
         set_reg t rd result;
         if op_suffix then latch_rop t result;
         emit_plain t ~sets_rop:op_suffix pc;
         t.pc <- next
       | Alui { op; rd; rs1; imm; op_suffix } ->
         let result = alu_eval op t.regs.(rs1) (imm land word_mask) in
         set_reg t rd result;
         if op_suffix then latch_rop t result;
         emit_plain t ~sets_rop:op_suffix pc;
         t.pc <- next
       | Load { width; rd; base; offset; op_suffix } ->
         let addr = (t.regs.(base) + offset) land word_mask in
         let value = load_width t width addr in
         set_reg t rd value;
         if op_suffix then latch_rop t value;
         emit t ~pc
           ~flags:
             (Event.tag_mem_read
             lor if op_suffix then Event.flag_sets_rop else 0)
           ~arg1:addr ~arg2:(-1);
         t.pc <- next
       | Store { width; src; base; offset } ->
         let addr = (t.regs.(base) + offset) land word_mask in
         store_width t width addr t.regs.(src);
         emit t ~pc ~flags:Event.tag_mem_write ~arg1:addr ~arg2:(-1);
         t.pc <- next
       | Branch { cond; rs1; rs2; offset } ->
         let a = t.regs.(rs1) and b = t.regs.(rs2) in
         let taken =
           match cond with
           | Eq -> a = b
           | Ne -> a <> b
           | Lt -> signed a < signed b
           | Ge -> signed a >= signed b
           | Ltu -> a < b
           | Geu -> a >= b
         in
         let target = pc + offset in
         emit t ~pc
           ~flags:
             (Event.tag_cond_branch lor if taken then Event.flag_taken else 0)
           ~arg1:target ~arg2:(-1);
         t.pc <- (if taken then target else next)
       | Jal { rd; offset } ->
         let target = pc + offset in
         set_reg t rd next;
         emit t ~pc
           ~flags:(if rd = 31 then Event.tag_call else Event.tag_jump)
           ~arg1:target ~arg2:(-1);
         t.pc <- target
       | Jalr { rd; base; offset } ->
         let target = (t.regs.(base) + offset) land lnot 3 land word_mask in
         set_reg t rd next;
         emit t ~pc ~flags:(indirect_flags ~rd ~base) ~arg1:target ~arg2:(-1);
         t.pc <- target
       | Lui { rd; imm } ->
         set_reg t rd (imm lsl 12);
         emit_plain t ~sets_rop:false pc;
         t.pc <- next
       | Setmask { rs } ->
         t.rmask <- t.regs.(rs);
         emit_plain t ~sets_rop:false pc;
         t.pc <- next
       | Bop ->
         (* Table I: hit requires Rbop-pc == PC, Rop valid, and a JTE for
            Rop.d; Rbop-pc is updated to this bop's PC either way. *)
         let hit_target =
           if t.rbop_pc = pc && t.rop_v then t.scd.bop_lookup ~opcode:t.rop_d
           else None
         in
         (match hit_target with
          | Some target ->
            emit t ~pc
              ~flags:(Event.tag_bop lor Event.flag_dispatch lor Event.flag_hit)
              ~arg1:target ~arg2:t.rop_d;
            t.rop_v <- false;
            t.pc <- target
          | None ->
            emit t ~pc
              ~flags:(Event.tag_bop lor Event.flag_dispatch)
              ~arg1:next ~arg2:t.rop_d;
            t.pc <- next);
         t.rbop_pc <- pc
       | Jru { rd; base; offset } ->
         let target = (t.regs.(base) + offset) land lnot 3 land word_mask in
         set_reg t rd next;
         let opcode = if t.rop_v then t.rop_d else -1 in
         if t.rop_v then begin
           t.scd.jru_insert ~opcode ~target;
           t.rop_v <- false
         end;
         emit t ~pc
           ~flags:(Event.tag_jru lor Event.flag_dispatch)
           ~arg1:target ~arg2:opcode;
         t.pc <- target
       | Jte_flush ->
         t.scd.jte_flush ();
         t.rop_v <- false;
         emit t ~pc ~flags:Event.tag_jte_flush ~arg1:0 ~arg2:(-1);
         t.pc <- next
       | Halt ->
         t.halted <- true;
         emit_plain t ~sets_rop:false pc;
         t.pc <- next);
      if t.halted then Some Halted else None

let run ?(max_steps = 10_000_000) t =
  let rec go remaining =
    if remaining = 0 then Step_limit
    else
      match step t with
      | Some reason -> reason
      | None -> go (remaining - 1)
  in
  go max_steps
