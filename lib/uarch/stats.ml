open Scd_util

type t = {
  mutable instructions : int;
  mutable dispatch_instructions : int;
  mutable cycles : int;
  mutable cond_branches : int;
  mutable cond_mispredicts : int;
  mutable direct_jumps : int;
  mutable direct_target_misses : int;
  mutable indirect_jumps : int;
  mutable indirect_mispredicts : int;
  mutable returns : int;
  mutable return_mispredicts : int;
  mutable mispredicts_dispatch : int;
  mutable bop_count : int;
  mutable bop_hits : int;
  mutable bop_stall_cycles : int;
  mutable jru_count : int;
  mutable icache_accesses : int;
  mutable icache_misses : int;
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable l2_misses : int;
}

let create () =
  {
    instructions = 0;
    dispatch_instructions = 0;
    cycles = 0;
    cond_branches = 0;
    cond_mispredicts = 0;
    direct_jumps = 0;
    direct_target_misses = 0;
    indirect_jumps = 0;
    indirect_mispredicts = 0;
    returns = 0;
    return_mispredicts = 0;
    mispredicts_dispatch = 0;
    bop_count = 0;
    bop_hits = 0;
    bop_stall_cycles = 0;
    jru_count = 0;
    icache_accesses = 0;
    icache_misses = 0;
    dcache_accesses = 0;
    dcache_misses = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    l2_misses = 0;
  }

let copy t = { t with instructions = t.instructions }

(* One (name, get, set) triple per record field. The result codec
   ({!Scd_cosim.Result}) encodes and decodes through this table, so the two
   directions cannot drift apart; extending the record only requires a new
   triple here (and a schema-version bump in the codec). *)
let fields =
  [
    ("instructions", (fun t -> t.instructions), fun t v -> t.instructions <- v);
    ( "dispatch_instructions",
      (fun t -> t.dispatch_instructions),
      fun t v -> t.dispatch_instructions <- v );
    ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("cond_branches", (fun t -> t.cond_branches), fun t v -> t.cond_branches <- v);
    ( "cond_mispredicts",
      (fun t -> t.cond_mispredicts),
      fun t v -> t.cond_mispredicts <- v );
    ("direct_jumps", (fun t -> t.direct_jumps), fun t v -> t.direct_jumps <- v);
    ( "direct_target_misses",
      (fun t -> t.direct_target_misses),
      fun t v -> t.direct_target_misses <- v );
    ("indirect_jumps", (fun t -> t.indirect_jumps), fun t v -> t.indirect_jumps <- v);
    ( "indirect_mispredicts",
      (fun t -> t.indirect_mispredicts),
      fun t v -> t.indirect_mispredicts <- v );
    ("returns", (fun t -> t.returns), fun t v -> t.returns <- v);
    ( "return_mispredicts",
      (fun t -> t.return_mispredicts),
      fun t v -> t.return_mispredicts <- v );
    ( "mispredicts_dispatch",
      (fun t -> t.mispredicts_dispatch),
      fun t v -> t.mispredicts_dispatch <- v );
    ("bop_count", (fun t -> t.bop_count), fun t v -> t.bop_count <- v);
    ("bop_hits", (fun t -> t.bop_hits), fun t v -> t.bop_hits <- v);
    ( "bop_stall_cycles",
      (fun t -> t.bop_stall_cycles),
      fun t v -> t.bop_stall_cycles <- v );
    ("jru_count", (fun t -> t.jru_count), fun t v -> t.jru_count <- v);
    ( "icache_accesses",
      (fun t -> t.icache_accesses),
      fun t v -> t.icache_accesses <- v );
    ("icache_misses", (fun t -> t.icache_misses), fun t v -> t.icache_misses <- v);
    ( "dcache_accesses",
      (fun t -> t.dcache_accesses),
      fun t v -> t.dcache_accesses <- v );
    ("dcache_misses", (fun t -> t.dcache_misses), fun t v -> t.dcache_misses <- v);
    ("itlb_misses", (fun t -> t.itlb_misses), fun t v -> t.itlb_misses <- v);
    ("dtlb_misses", (fun t -> t.dtlb_misses), fun t v -> t.dtlb_misses <- v);
    ("l2_misses", (fun t -> t.l2_misses), fun t v -> t.l2_misses <- v);
  ]

let to_assoc t = List.map (fun (name, get, _) -> (name, get t)) fields

let of_assoc assoc =
  let t = create () in
  let missing =
    List.filter_map
      (fun (name, _, set) ->
        match List.assoc_opt name assoc with
        | Some v ->
          set t v;
          None
        | None -> Some name)
      fields
  in
  match missing with
  | [] -> Ok t
  | names -> Error ("missing stats fields: " ^ String.concat ", " names)

let equal a b = Stdlib.( = ) (to_assoc a) (to_assoc b)

let total_mispredicts t =
  t.cond_mispredicts + t.indirect_mispredicts + t.return_mispredicts
  + t.direct_target_misses

(* Every derived ratio funnels through here so that zero-instruction and
   zero-bop runs (empty scripts, freshly-created stats, degenerate interval
   samples) report 0.0 instead of nan or a division trap. *)
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let branch_mpki t = Summary.per_kilo ~count:(total_mispredicts t) ~total:t.instructions
let dispatch_mpki t = Summary.per_kilo ~count:t.mispredicts_dispatch ~total:t.instructions
let icache_mpki t = Summary.per_kilo ~count:t.icache_misses ~total:t.instructions
let dcache_mpki t = Summary.per_kilo ~count:t.dcache_misses ~total:t.instructions
let cpi t = ratio t.cycles t.instructions
let ipc t = ratio t.instructions t.cycles
let dispatch_fraction t = ratio t.dispatch_instructions t.instructions
let bop_hit_rate t = ratio t.bop_hits t.bop_count
