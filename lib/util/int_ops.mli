(** Int-typed comparisons, for libraries opened with
    [-open Scd_util.Int_ops] (the timing model and the SCD engine). The
    operators shadow [Stdlib]'s polymorphic ones with the same primitives
    at type [int], so each compiles to a machine compare instead of a call
    into the runtime's generic comparison, and comparing anything but ints
    becomes a type error. Compare other types with their own module's
    [equal] ([Bool.equal], [String.equal]) or an explicit [Stdlib.( = )]. *)

external ( = ) : int -> int -> bool = "%equal"
external ( <> ) : int -> int -> bool = "%notequal"
external ( < ) : int -> int -> bool = "%lessthan"
external ( > ) : int -> int -> bool = "%greaterthan"
external ( <= ) : int -> int -> bool = "%lessequal"
external ( >= ) : int -> int -> bool = "%greaterequal"
external compare : int -> int -> int = "%compare"

val min : int -> int -> int
val max : int -> int -> int
