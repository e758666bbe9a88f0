(** Allocation budgets for the simulator's hot kernels.

    A checked-in table of [minor_words_per_run] budgets for the bench
    [--micro] kernels, plus a comparator over measured counts.
    `bench/main.exe --check-budgets` (wired into [dune runtest] as the
    budget-check rule) counts each kernel's minor words exactly and fails
    when any budgeted micro allocates more than its budget. *)

type entry = { name : string; minor_words_per_run : float }

val table : entry list
(** The checked-in budgets. Ordered as the micros run. *)

val find : string -> entry option

type status = Pass | Fail | Missing

type verdict = {
  entry : entry;
  measured : float option;  (** [None] when the micro was not measured. *)
  status : status;
}

val check_measured :
  ?budgets:entry list -> (string * float) list -> verdict list
(** Compare measured [(name, minor_words_per_run)] pairs against the
    budgets ([table] by default; injectable for tests): a micro passes when
    it allocates at most its budget. One verdict per budget entry, in table
    order. *)

val ok : verdict list -> bool
(** Every verdict is [Pass] — a budgeted micro [Missing] from the
    measurements fails too, so the table cannot rot silently. *)

val status_name : status -> string

val render : verdict list -> string
(** One line per verdict under a header: kernel, budget, measured words,
    status. *)
