(** Set-associative cache model (used for L1 I, L1 D and, on the high-end
    configuration, a unified L2). Tracks hits/misses only — the datapath
    carries no data, timing is charged by the pipeline, which also keeps
    the access and miss counts. Write misses allocate (write-allocate,
    write-back is not modelled since only latency matters here).

    Each set remembers the way of its last hit or fill. {!access} checks
    that way first and inlines into its caller; the way scan and the LRU
    fill run out of line. A tag lives in at most one way of its set, and
    that way holds the set's newest stamp, so a hit there stamps nothing:
    hits, misses and victims are those of a plain scan-and-LRU cache. *)

type geometry = {
  size_bytes : int;
  ways : int;
  block_bytes : int;
}
(** No hit latency: an L1 hit is pipelined and costs no cycle, and the
    pipeline charges an L2 hit [Config.l2_latency]. *)

type t

val create : geometry -> t

val access : t -> addr:int -> [ `Hit | `Miss ]
(** Look up the block containing [addr]; allocates on miss (LRU victim). *)

val contains : t -> addr:int -> bool
(** Probe without side effects. *)
