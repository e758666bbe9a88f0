(* Differential stress of the real BTB against the reference model.

   Drives both through an identical random operation sequence — JTE and
   branch inserts, lookups in both namespaces, flushes — over a key
   distribution tight enough to force set conflicts, and compares lookup
   results plus the full architectural snapshot after every operation,
   with the invariant auditor riding along. Replacement-policy bugs that
   the VM-level oracle cannot see (victim choice never changes what a
   program computes, only who gets evicted) surface here as a state
   mismatch within a few operations. *)

open Scd_util

type op =
  | Insert_jte of int * int
  | Insert_branch of int * int
  | Lookup_jte of int
  | Lookup_branch of int
  | Flush

let op_to_string = function
  | Insert_jte (k, t) -> Printf.sprintf "insert jte key=%#x target=%#x" k t
  | Insert_branch (k, t) -> Printf.sprintf "insert branch key=%#x target=%#x" k t
  | Lookup_jte k -> Printf.sprintf "lookup jte key=%#x" k
  | Lookup_branch k -> Printf.sprintf "lookup branch key=%#x" k
  | Flush -> "jte flush"

(* Keys are word-aligned, as the engine and the front end produce them.
   [tag_span] distinct tags per set is enough to exercise conflict and
   replacement without making accidental hits vanish. *)
let gen_op rng ~sets =
  let key () =
    let set = Rng.int rng sets in
    let tag = Rng.int rng 6 in
    ((tag * sets) + set) lsl 2
  in
  match Rng.int rng 20 with
  | 0 -> Flush
  | 1 | 2 | 3 | 4 | 5 | 6 -> Insert_jte (key (), Rng.int rng 0x10000)
  | 7 | 8 | 9 | 10 | 11 -> Insert_branch (key (), Rng.int rng 0x10000)
  | 12 | 13 | 14 | 15 -> Lookup_jte (key ())
  | _ -> Lookup_branch (key ())

type geometry = {
  label : string;
  entries : int;
  ways : int;
  replacement : Scd_uarch.Btb.replacement;
  jte_cap : int option;
}

(* Small tables, both policies, capped and uncapped, set-associative and
   fully associative — small enough that every replacement path runs within
   a few hundred operations. *)
let geometries =
  [
    { label = "8e-2w-rr"; entries = 8; ways = 2;
      replacement = Scd_uarch.Btb.Round_robin; jte_cap = None };
    { label = "16e-4w-rr-cap4"; entries = 16; ways = 4;
      replacement = Scd_uarch.Btb.Round_robin; jte_cap = Some 4 };
    { label = "8e-2w-lru"; entries = 8; ways = 2;
      replacement = Scd_uarch.Btb.Lru; jte_cap = None };
    { label = "16e-16w-lru-cap6"; entries = 16; ways = 16;
      replacement = Scd_uarch.Btb.Lru; jte_cap = Some 6 };
    { label = "32e-4w-rr"; entries = 32; ways = 4;
      replacement = Scd_uarch.Btb.Round_robin; jte_cap = None };
  ]

(* Run [ops] random operations against one geometry. [legacy_rr_fill]
   plants the historical round-robin bug in the *model*, so tests can
   assert the harness notices (the mismatch report is symmetric). *)
let run_geometry ?(legacy_rr_fill = false) ~ops ~seed g =
  let rng = Rng.create seed in
  let real =
    Scd_uarch.Btb.create ~entries:g.entries ~ways:g.ways
      ~replacement:g.replacement ?jte_cap:g.jte_cap ()
  in
  let model =
    Btb_model.create ~legacy_rr_fill ~entries:g.entries ~ways:g.ways
      ~replacement:g.replacement ?jte_cap:g.jte_cap ()
  in
  let sets = Scd_uarch.Btb.sets real in
  let result = ref None in
  let show t =
    if t = Scd_uarch.Btb.no_target then "miss" else Printf.sprintf "%#x" t
  in
  let step i =
    let op = gen_op rng ~sets in
    let describe problem =
      Printf.sprintf "%s: op %d (%s): %s" g.label i (op_to_string op) problem
    in
    let lookup ~jte key =
      let r = Scd_uarch.Btb.lookup_target real ~jte ~key in
      let m =
        Option.value (Btb_model.lookup model ~jte ~key)
          ~default:Scd_uarch.Btb.no_target
      in
      if r <> m then
        result :=
          Some
            (describe
               (Printf.sprintf "lookup disagrees (model %s, real %s)" (show m)
                  (show r)))
    in
    (match op with
     | Insert_jte (key, target) ->
       Scd_uarch.Btb.insert real ~jte:true ~key ~target;
       Btb_model.insert model ~jte:true ~key ~target
     | Insert_branch (key, target) ->
       Scd_uarch.Btb.insert real ~jte:false ~key ~target;
       Btb_model.insert model ~jte:false ~key ~target
     | Lookup_jte key -> lookup ~jte:true key
     | Lookup_branch key -> lookup ~jte:false key
     | Flush ->
       Scd_uarch.Btb.flush_jtes real;
       Btb_model.flush_jtes model);
    if !result = None then begin
      (match Btb_model.diff model real with
       | Some problem -> result := Some (describe problem)
       | None -> ());
      if !result = None then begin
        if Btb_model.population model <> Scd_uarch.Btb.jte_population real then
          result :=
            Some
              (describe
                 (Printf.sprintf "population disagrees (model %d, real %d)"
                    (Btb_model.population model)
                    (Scd_uarch.Btb.jte_population real)));
        match Audit.run real with
        | () -> ()
        | exception Audit.Violation m -> result := Some (describe m)
      end
    end
  in
  let i = ref 0 in
  while !result = None && !i < ops do
    step !i;
    incr i
  done;
  !result

(* Every geometry under one seed (each geometry draws from its own stream
   offset so their op sequences differ); first divergence wins. *)
let run ?legacy_rr_fill ?(ops = 400) ~seed () =
  List.fold_left
    (fun (i, acc) g ->
      match acc with
      | Some _ -> (i + 1, acc)
      | None ->
        ( i + 1,
          run_geometry ?legacy_rr_fill ~ops
            ~seed:(Int64.add seed (Int64.of_int i))
            g ))
    (0, None) geometries
  |> snd
