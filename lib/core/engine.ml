type stats = {
  mutable bop_lookups : int;
  mutable bop_hits : int;
  mutable jru_inserts : int;
  mutable flushes : int;
  mutable context_switch_flushes : int;
}

type t = {
  btb : Scd_uarch.Btb.t;
  tables : int;
  stats : stats;
}

(* Opcode keys are mapped into the BTB's word-aligned key domain, with the
   branch ID (jump-table index) in the bits above the opcode. Interpreter
   opcode spaces are at most a few hundred entries (Lua 47, SpiderMonkey
   229), so 10 bits of opcode is ample. *)
let opcode_bits = 10

let key ~table ~opcode = ((table lsl opcode_bits) lor opcode) lsl 2

let create ?(tables = 1) btb =
  if tables < 1 || tables > 16 then
    invalid_arg "Engine.create: tables must be in [1, 16]";
  {
    btb;
    tables;
    stats =
      {
        bop_lookups = 0;
        bop_hits = 0;
        jru_inserts = 0;
        flushes = 0;
        context_switch_flushes = 0;
      };
  }

(* Checked mode: when installed, the auditor runs after every architectural
   BTB write ([jru] insertion and [jte_flush]) with the engine's BTB. The
   correctness checker (Scd_check) installs an invariant auditor here so
   that every co-simulated run validates population/cap/stats invariants at
   each mutation; production runs pay a single ref read per write. *)
let auditor : (Scd_uarch.Btb.t -> unit) option ref = ref None
let set_auditor f = auditor := f
let audit t = match !auditor with None -> () | Some f -> f t.btb

let check_table t table =
  if table < 0 || table >= t.tables then
    invalid_arg (Printf.sprintf "Engine: branch ID %d out of range" table)

let check_opcode opcode =
  if opcode < 0 || opcode >= 1 lsl opcode_bits then
    invalid_arg (Printf.sprintf "Engine: opcode %d out of range" opcode)

let no_target = Scd_uarch.Btb.no_target

let bop_target t ~table ~opcode =
  check_table t table;
  check_opcode opcode;
  t.stats.bop_lookups <- t.stats.bop_lookups + 1;
  let target = Scd_uarch.Btb.lookup_target t.btb ~jte:true ~key:(key ~table ~opcode) in
  if target != no_target then t.stats.bop_hits <- t.stats.bop_hits + 1;
  target

(* [opcode < 0] means Rop was invalid: jru behaves as a plain indirect
   jump and inserts nothing. *)
let jru_code t ~table ~opcode ~target =
  check_table t table;
  if opcode >= 0 then begin
    check_opcode opcode;
    t.stats.jru_inserts <- t.stats.jru_inserts + 1;
    Scd_uarch.Btb.insert t.btb ~jte:true ~key:(key ~table ~opcode) ~target;
    audit t
  end

let jte_flush t =
  t.stats.flushes <- t.stats.flushes + 1;
  Scd_uarch.Btb.flush_jtes t.btb;
  audit t

let context_switch t =
  t.stats.context_switch_flushes <- t.stats.context_switch_flushes + 1;
  jte_flush t

let jte_population t = Scd_uarch.Btb.jte_population t.btb
let stats t = t.stats
let btb t = t.btb

let copy_stats (s : stats) = { s with bop_lookups = s.bop_lookups }

(* Field table backing the result codec; see the note on
   {!Scd_uarch.Stats.fields}. *)
let stats_fields =
  [
    ( "bop_lookups",
      (fun (s : stats) -> s.bop_lookups),
      fun (s : stats) v -> s.bop_lookups <- v );
    ("bop_hits", (fun s -> s.bop_hits), fun s v -> s.bop_hits <- v);
    ("jru_inserts", (fun s -> s.jru_inserts), fun s v -> s.jru_inserts <- v);
    ("flushes", (fun s -> s.flushes), fun s v -> s.flushes <- v);
    ( "context_switch_flushes",
      (fun s -> s.context_switch_flushes),
      fun s v -> s.context_switch_flushes <- v );
  ]

let stats_to_assoc s = List.map (fun (name, get, _) -> (name, get s)) stats_fields

let stats_of_assoc assoc =
  let s =
    { bop_lookups = 0; bop_hits = 0; jru_inserts = 0; flushes = 0;
      context_switch_flushes = 0 }
  in
  let missing =
    List.filter_map
      (fun (name, _, set) ->
        match List.assoc_opt name assoc with
        | Some v ->
          set s v;
          None
        | None -> Some name)
      stats_fields
  in
  match missing with
  | [] -> Ok s
  | names -> Error ("missing engine stats fields: " ^ String.concat ", " names)

let exec_backend ?(table = 0) t : Scd_isa.Exec.scd_backend =
  {
    bop_lookup =
      (fun ~opcode ->
        let target = bop_target t ~table ~opcode in
        if target == no_target then None else Some target);
    jru_insert = (fun ~opcode ~target -> jru_code t ~table ~opcode ~target);
    jte_flush = (fun () -> jte_flush t);
  }
