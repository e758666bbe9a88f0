let render ?pc instr =
  let base = Format.asprintf "%a" Instr.pp instr in
  match (pc, instr) with
  | Some pc, (Instr.Branch { offset; _ } | Instr.Jal { offset; _ }) ->
    Printf.sprintf "%s  # -> 0x%x" base (pc + offset)
  | _ -> base

let disassemble ?pc word =
  match Encode.decode word with
  | Ok instr -> Ok (render ?pc instr)
  | Error _ as e -> e

let labels_at (program : Asm.program) addr =
  List.filter_map
    (fun (name, a) -> if a = addr then Some name else None)
    program.symbols

let dump_program (program : Asm.program) =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i instr ->
      let pc = program.base + (4 * i) in
      List.iter
        (fun name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name))
        (labels_at program pc);
      let word = Encode.encode_exn instr in
      Buffer.add_string buf
        (Printf.sprintf "  0x%05x: %08x  %s\n" pc word (render ~pc instr)))
    program.instrs;
  Buffer.contents buf
