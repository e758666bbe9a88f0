(** Return address stack. Fixed depth, wrap-around overwrite on overflow (as
    in real hardware: deep call chains silently lose the oldest entries). *)

type t

val create : depth:int -> t
val push : t -> int -> unit

val no_target : int
(** Sentinel returned by {!pop_target} when the stack is empty ([min_int]). *)

val pop_target : t -> int
(** Allocation-free pop: predicted return address, or {!no_target} when
    empty (predict fall-through). *)

val depth : t -> int
val occupancy : t -> int
