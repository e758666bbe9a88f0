(** Small fully-associative TLB (4 KiB pages, LRU). The paper's cores carry
    8-10 entry I- and D-TLBs; misses charge a fixed walk penalty in the
    pipeline, which also keeps the miss count.

    A 64-entry slot-hint table, indexed by the low VPN bits, remembers the
    slot of each entry's last hit or fill. {!access} checks the hinted
    slot first and inlines into its caller; the slot scan and the LRU fill
    run out of line. A VPN lives in at most one slot, so the hint changes
    no answer, tick or stamp: hits, misses and victims are exactly those
    of a plain scan-and-LRU TLB. *)

type t

val page_shift : int
(** log2 of the page size (12). Two addresses share a translation exactly
    when they agree above this bit. *)

val create : entries:int -> t

val access : t -> addr:int -> [ `Hit | `Miss ]
(** Translate the page of [addr]; fills the LRU slot (invalid slots first)
    on a miss. *)

