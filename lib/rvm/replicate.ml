open Bytecode

let optimize (program : program) =
  (* Alternate per base opcode across the whole program so both identities
     stay populated. *)
  let flip = Hashtbl.create 8 in
  let protos =
    Array.map
      (fun (proto : proto) ->
        let overrides = Array.make (Array.length proto.code) (-1) in
        Array.iteri
          (fun i instr ->
            let base = opcode_of_instr instr in
            match replica_of_base base with
            | None -> ()
            | Some replica ->
              let use_replica =
                match Hashtbl.find_opt flip base with
                | Some v -> v
                | None -> false
              in
              Hashtbl.replace flip base (not use_replica);
              if use_replica then overrides.(i) <- replica)
          proto.code;
        { proto with opcode_overrides = overrides })
      program.protos
  in
  { protos }
