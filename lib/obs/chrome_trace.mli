(** Chrome trace-event JSON builder.

    Produces the JSON Object Format of the Trace Event specification — a
    top-level object with a ["traceEvents"] array plus an ["otherData"]
    object — loadable in [chrome://tracing] and Perfetto. The co-simulator
    uses counter events ([ph = "C"]) for interval-sampled metrics, with the
    simulated cycle count as the microsecond timestamp, and instant events
    ([ph = "i"]) for point occurrences such as context-switch JTE flushes.

    The builder keeps each event as a {!Json.value}; {!contents} prints the
    document with {!Json.to_string}. *)

type t

val create : ?process_name:string -> unit -> t
(** Emits process/thread-name metadata events up front ([process_name]
    defaults to ["scdsim"]). *)

val counter : t -> name:string -> ts:int -> (string * float) list -> unit
(** One counter sample: each [(series, value)] pair becomes a track under
    the counter's name. [ts] is the timestamp in simulated cycles. *)

val instant : t -> name:string -> ts:int -> unit
(** A global instant event. *)

val complete : t -> name:string -> ts:int -> dur:int -> unit
(** A complete ([ph = "X"]) slice of [dur] cycles starting at [ts]. *)

val add_other_value : t -> key:string -> Json.value -> unit
(** Attach [value] under ["otherData"].[key]. Members keep the order they
    were added in. *)

val add_other : t -> key:string -> json:string -> unit
(** {!add_other_value} of a pre-serialised JSON document, parsed by
    {!Json.parse}: every number reaches the trace as the same float.
    Raises [Invalid_argument] when [json] is malformed. *)

val contents : t -> string
(** The complete document. The builder remains usable (more events append
    after the snapshot). *)
