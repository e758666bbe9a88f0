open Scd_isa

type role = Plain | Vm_load | Fetch | Vm_store | Bop | Bound_check | Jt_load | Jump

type t = { instrs : Instr.t array; roles : role array; fetch : int; bop : int }

let role_name = function
  | Plain -> "plain"
  | Vm_load -> "vm-state load"
  | Fetch -> "fetch"
  | Vm_store -> "vm-state store"
  | Bop -> "a JTE hit jumps to the handler"
  | Bound_check -> "bound check"
  | Jt_load -> "jump-table load"
  | Jump -> "dispatch jump"

let ldw ?(op_suffix = false) rd base =
  Instr.Load { width = Word; rd; base; offset = 0; op_suffix }

let alui op rd rs1 imm = Instr.Alui { op; rd; rs1; imm; op_suffix = false }
let alu op rd rs1 rs2 = Instr.Alu { op; rd; rs1; rs2; op_suffix = false }

(* The executed path, segment by segment in the order of
   {!Spec.dispatch_costs} (r20: VM state, r21: jump table). A segment
   longer than its working instructions repeats them, and every repeat is
   idempotent, so the sequence dispatches correctly at any calibrated
   size. *)
let build (spec : Spec.t) (scheme : Scd_core.Scheme.t) ~overhead =
  let d = spec.dispatch in
  if
    d.fetch_instrs < 3 || d.decode_instrs < 1 || d.bound_check_instrs < 2
    || d.target_calc_instrs < 3
  then invalid_arg ("Dispatcher.get: dispatch costs too small for " ^ spec.name);
  let scd = match scheme with Scd -> true | Baseline | Jump_threading | Vbbi -> false in
  let code = ref [] in
  let add role instr = code := (role, instr) :: !code in
  let plains n instr = for i = 0 to n - 1 do add Plain (instr i) done in
  (* loop book-keeping: count down a hook counter kept in the VM state *)
  if overhead && d.loop_overhead_instrs > 0 then begin
    add Vm_load (ldw 15 20);
    plains (d.loop_overhead_instrs - 1) (fun i ->
        if i land 1 = 0 then alui Add 16 16 (-1) else alu And 15 15 16)
  end;
  (* fetch: load the bytecode pointer, the bytecode, bump, store back *)
  add Vm_load (ldw 3 20);
  add Fetch (ldw ~op_suffix:scd 9 3);
  plains (d.fetch_instrs - 3) (fun _ -> alui Add 3 3 4);
  add Vm_store (Instr.Store { width = Word; src = 3; base = 20; offset = 0 });
  (* operand fields: r10 and r11, alternately shifted out and masked *)
  plains d.operand_decode_instrs (fun i ->
      let r = 10 + (i / 2 land 1) in
      if i land 1 = 0 then alui Srl r 9 (8 * (r - 9)) else alui And r r 255);
  if scd then add Bop Instr.Bop;
  (* the slow path a bop hit skips *)
  plains d.decode_instrs (fun _ -> alui And 12 9 255);
  plains (d.bound_check_instrs - 1) (fun _ -> alui Add 13 0 spec.num_opcodes);
  add Bound_check (Instr.Branch { cond = Geu; rs1 = 12; rs2 = 13; offset = 0 });
  plains (d.target_calc_instrs - 1) (fun i ->
      if i < d.target_calc_instrs - 2 then alui Sll 14 12 2 else alu Add 14 21 14);
  add Jt_load (ldw 14 14);
  add Jump
    (if scd then Instr.Jru { rd = 0; base = 14; offset = 0 }
     else Instr.Jalr { rd = 0; base = 14; offset = 0 });
  let roles, instrs = List.split (List.rev !code) in
  let index role = Option.value ~default:(-1) (List.find_index (( = ) role) roles) in
  { instrs = Array.of_list instrs; roles = Array.of_list roles;
    fetch = index Fetch; bop = index Bop }

let schemes = Scd_core.Scheme.[| Baseline; Jump_threading; Vbbi; Scd |]

(* Every (scheme, overhead) dispatcher of a spec, built on the spec's first
   lookup. [Layout.build] asks on every co-simulation, so a lookup is a
   lock-free scan that allocates nothing; only a miss takes the lock. *)
let registry : (Spec.t * t array) list Atomic.t = Atomic.make []
let lock = Mutex.create ()

let rec find spec = function
  | (s, ds) :: rest -> if s == spec then ds else find spec rest
  | [] -> [||]

let get spec (scheme : Scd_core.Scheme.t) ~overhead =
  let ds = find spec (Atomic.get registry) in
  let ds =
    if Array.length ds > 0 then ds
    else
      Mutex.protect lock (fun () ->
          let ds = find spec (Atomic.get registry) in
          if Array.length ds > 0 then ds
          else begin
            let ds =
              Array.init 8 (fun i ->
                  build spec schemes.(i / 2) ~overhead:(i land 1 = 1))
            in
            Atomic.set registry ((spec, ds) :: Atomic.get registry);
            ds
          end)
  in
  let s = match scheme with Baseline -> 0 | Jump_threading -> 1 | Vbbi -> 2 | Scd -> 3 in
  ds.((2 * s) + Bool.to_int overhead)

let length t = Array.length t.instrs
let rop_gap t = t.bop - t.fetch

let program t ~base ~default_handler =
  let place i instr =
    match (t.roles.(i), instr) with
    | Bound_check, Instr.Branch b ->
      Instr.Branch { b with offset = default_handler - (base + (4 * i)) }
    | _ -> instr
  in
  { Asm.base; symbols = []; instrs = Array.mapi place t.instrs }
