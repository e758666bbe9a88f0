(* The simulated side of one pass: a digest over every cell's result plus
   the summed counters. Simulated statistics are exact, so a change that
   only makes the simulator faster must leave all of this bit-identical. *)

open Scd_cosim

type t = {
  digest : Int64.t;  (** 64-bit FNV-1a over every (key, result) in order. *)
  bytecodes : int;
  stats : Scd_uarch.Stats.t;  (** Field-wise sum over the cells. *)
  bop_lookups : int;
  bop_hits : int;
  jru_inserts : int;
  cs_flushes : int;
}

let fnv1a h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let add_stats a b =
  match
    Scd_uarch.Stats.of_assoc
      (List.map2
         (fun (k, x) (_, y) -> (k, x + y))
         (Scd_uarch.Stats.to_assoc a) (Scd_uarch.Stats.to_assoc b))
  with
  | Ok s -> s
  | Error e -> failwith e

(** Totals over [(key, result)] pairs, taken in the given order (callers
    pass canonical order, so the digest does not depend on run order). *)
let of_results pairs =
  List.fold_left
    (fun acc (key, (r : Result.t)) ->
      let e =
        match r.engine with
        | Some e -> e
        | None ->
          { Scd_core.Engine.bop_lookups = 0; bop_hits = 0; jru_inserts = 0;
            flushes = 0; context_switch_flushes = 0 }
      in
      { digest = fnv1a (fnv1a acc.digest (key ^ "\n")) (Result.to_string r);
        bytecodes = acc.bytecodes + r.bytecodes;
        stats = add_stats acc.stats r.stats;
        bop_lookups = acc.bop_lookups + e.bop_lookups;
        bop_hits = acc.bop_hits + e.bop_hits;
        jru_inserts = acc.jru_inserts + e.jru_inserts;
        cs_flushes = acc.cs_flushes + e.context_switch_flushes })
    { digest = 0xcbf29ce484222325L; bytecodes = 0;
      stats = Scd_uarch.Stats.create (); bop_lookups = 0; bop_hits = 0;
      jru_inserts = 0; cs_flushes = 0 }
    pairs

let to_string t =
  Printf.sprintf
    "digest %016Lx bytecodes %d instructions %d cycles %d \
     dispatch_instructions %d mispredicts %d icache_misses %d \
     dcache_misses %d bop_lookups %d bop_hits %d jru_inserts %d cs_flushes %d"
    t.digest t.bytecodes t.stats.instructions t.stats.cycles
    t.stats.dispatch_instructions
    (Scd_uarch.Stats.total_mispredicts t.stats)
    t.stats.icache_misses t.stats.dcache_misses t.bop_lookups t.bop_hits
    t.jru_inserts t.cs_flushes
