(** Fixed-size domain pool for embarrassingly-parallel fan-out.

    A pool owns [jobs - 1] worker domains plus the calling domain: the
    caller of {!run} helps drain the task queue while it waits, so a task
    may itself submit a nested batch to the same pool without deadlock
    (the nested caller executes queued work instead of blocking idle).

    With [jobs = 1] no domains are spawned and {!run} degenerates to
    executing the thunks sequentially, in order, on the calling domain —
    the exact legacy code path.

    Results are always gathered in submission order, independent of
    execution interleaving, so a deterministic task list yields a
    deterministic result list. Tasks must not share mutable state; give
    each task its own simulator/RNG instances. *)

type t

val jobs : t -> int
(** Parallelism width the pool was created with (including the caller). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run : t -> (unit -> 'a) list -> 'a list
(** Execute every thunk, possibly concurrently, and return the results in
    submission order. If any task raised, the first exception in
    submission order is re-raised (with its backtrace) after all tasks
    have finished. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is [run t (List.map (fun x () -> f x) xs)]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [max 0 (jobs - 1)] worker domains ([jobs]
    is clamped below at 1), applies [f] to the pool, and joins the domains
    even if [f] raises, so no pool outlives its domains; using the pool
    after [f] returns raises. *)
