(* Multiple jump tables (paper Section IV): SCD extends to n simultaneous
   indirect jumps by replicating (Rop, Rmask, Rbop-pc) and tagging JTEs with
   a branch ID. This example drives the engine directly with two tables that
   share one small BTB — their keys never collide, JTEs keep priority over
   branch entries, and jte_flush clears both tables at once (the context
   switch model).

     dune exec examples/multi_table.exe *)

let () =
  let btb =
    Scd_uarch.Btb.create ~entries:32 ~ways:2 ~replacement:Scd_uarch.Btb.Lru ()
  in
  let engine = Scd_core.Engine.create ~tables:2 btb in

  (* Table 0: a bytecode dispatch table. Table 1: a switch statement in the
     runtime. Same opcode values, different targets. *)
  for opcode = 0 to 7 do
    Scd_core.Engine.jru_code engine ~table:0 ~opcode
      ~target:(0x1000 + (opcode * 0x40));
    Scd_core.Engine.jru_code engine ~table:1 ~opcode
      ~target:(0x8000 + (opcode * 0x40))
  done;
  Printf.printf "resident JTEs after filling both tables: %d\n"
    (Scd_core.Engine.jte_population engine);

  (* Lookups are isolated per branch ID. *)
  let hits = ref 0 and cross_collisions = ref 0 in
  let lookup ~table ~opcode ~expected =
    let target = Scd_core.Engine.bop_target engine ~table ~opcode in
    if target <> Scd_core.Engine.no_target then begin
      incr hits;
      if target <> expected then incr cross_collisions
    end
  in
  for opcode = 0 to 7 do
    lookup ~table:0 ~opcode ~expected:(0x1000 + (opcode * 0x40));
    lookup ~table:1 ~opcode ~expected:(0x8000 + (opcode * 0x40))
  done;
  Printf.printf "lookups hit: %d/16, cross-table collisions: %d\n" !hits
    !cross_collisions;
  assert (!cross_collisions = 0);

  (* Branch-target entries never evict JTEs... *)
  for i = 0 to 63 do
    Scd_uarch.Btb.insert btb ~jte:false ~key:(0x9000 + (4 * i)) ~target:0xA000
  done;
  Printf.printf "JTEs after 64 branch-entry insertions: %d (priority held)\n"
    (Scd_core.Engine.jte_population engine);

  (* ...and a context switch flushes only the JTEs. *)
  Scd_core.Engine.jte_flush engine;
  Printf.printf "JTEs after jte_flush: %d\n" (Scd_core.Engine.jte_population engine);
  let survivors =
    List.length
      (List.filter
         (fun i ->
           Scd_uarch.Btb.probe_target btb ~jte:false ~key:(0x9000 + (4 * i))
           <> Scd_uarch.Btb.no_target)
         (List.init 64 Fun.id))
  in
  Printf.printf "branch entries surviving the flush: %d\n" survivors
