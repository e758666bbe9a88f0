(** Scalar statistics helpers used by the experiment harness. *)

val geomean : float list -> float
(** Geometric mean. Raises [Invalid_argument] on an empty list or on
    non-positive elements. *)

val mean : float list -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty list. *)

val speedup_percent : baseline:float -> cycles:float -> float
(** Speedup of a run over a baseline in percent: [baseline/cycles - 1] times
    100. Positive means faster than the baseline. *)

val per_kilo : count:int -> total:int -> float
(** Events per thousand, e.g. branch misses per kilo-instruction (MPKI). *)
