(** Indirect-jump target prediction schemes.

    [Pc_btb] is the conventional PC-indexed BTB lookup (the baseline).
    [Vbbi] is Value-Based BTB Indexing (Farooq et al., HPCA 2010), the
    state-of-the-art hardware comparison point in the paper: the BTB is
    indexed with a hash of the PC and a compiler-identified hint value (the
    opcode for a dispatch jump), so each bytecode gets its own entry.
    [Ttc] is a history-based Tagged Target Cache (Chang et al., ISCA 1997)
    and [Ittage] an ITTAGE-style predictor (Seznec & Michaud) with
    geometric-history tagged tables over a BTB base component; both are
    provided as related-work ablations.

    All schemes store their targets as ordinary (non-JTE) entries in the
    shared {!Btb}, except TTC and ITTAGE which own private tagged tables. *)

type scheme =
  | Pc_btb
  | Vbbi
  | Ttc of { entries : int }
  | Ittage of { table_entries : int; tables : int }

type t

val create : scheme -> Btb.t -> t

val no_hint : int
(** Hint sentinel for the [_target] forms: any negative hint means "no
    hint" (real hints are non-negative opcodes). *)

val no_target : int
(** Miss sentinel for {!predict_target} (equals {!Btb.no_target}). *)

val predict_target : t -> pc:int -> hint:int -> int
(** Allocation-free prediction: the predicted target, or {!no_target}.
    Counts as a BTB lookup where applicable. *)

val update_target : t -> pc:int -> hint:int -> target:int -> unit
(** Allocation-free training with the resolved target (also advances TTC
    path history). *)

val scheme : t -> scheme
