(** Persistent sweep cache: one {!Scd_cosim.Result} codec file per cell.

    The store is the disk layer beneath {!Sweep}'s in-process memo table. A
    cell's raw key ({!Sweep.key}, which names no code version) is prefixed
    with [s<format>.v<Result.schema_version>|] and mapped to
    [<sanitised-key>-<fnv1a-hash>.scdres] inside the store directory — the
    hash of the raw key keeps distinct keys in distinct files even when
    sanitisation folds them together, and the version prefix means a codec
    or framing bump silently invalidates (never reads, never clobbers) old
    entries.

    Every file carries a [sum <fnv1a>] integrity header over its payload,
    so truncation {e and} bit flips are both detected at load time. A file
    that fails the checksum or the codec is quarantined — renamed to
    [*.corrupt], keeping the evidence — and counted in {!corrupt}; leaving
    it in place would make every warm run re-miss the same cell and re-race
    the writer.

    Writes go through a temp file and an atomic rename, so concurrent pool
    domains or parallel [scdsim] processes never expose a partial file; each
    cell is a deterministic function of its key, so racing writers produce
    identical bytes. Hit/miss/store/corrupt counters feed [bench --json]
    and [scdsim cache stats]. *)

type t

val default_dir : string
(** ["_scd_cache"] — the conventional store location ([--cache DIR]
    overrides it). *)

val format_version : int
(** Version of the on-disk file framing (the integrity header), independent
    of {!Scd_cosim.Result.schema_version}; both participate in the
    filename, so bumping either orphans old files rather than misreading
    them. *)

val create : string -> t
(** Open (creating directories as needed) a store rooted at the given
    directory. Raises [Invalid_argument] if the path exists and is not a
    directory. *)

val dir : t -> string

val mangle : string -> string
(** The collision-free filename stem for a raw key: sanitised key plus an
    8-hex-digit FNV-1a hash of the raw key. Exposed for {!Sweep}'s sample
    CSV naming. *)

val file_of_key : t -> key:string -> string
(** Full path of the file a key maps to, whether or not it exists. Exposed
    for the fault injector ({!Scd_check.Faults}) and tests, which corrupt
    specific cells on disk. *)

val load : t -> key:string -> Scd_cosim.Result.t option
(** Look up a cell. [None] (counted as a miss) if the file is absent or
    fails the integrity check or codec; in the latter case the file is also
    quarantined and counted in {!corrupt}, so the cell is recomputed once
    and the next save replaces it. *)

val save : t -> key:string -> Scd_cosim.Result.t -> unit
(** Persist a cell (integrity header + payload, atomic tmp + rename). *)

val hits : t -> int
val misses : t -> int
val stores : t -> int

val corrupt : t -> int
(** Loads (this process) that found a corrupt file and quarantined it.
    Every corrupt load is also counted as a miss, so
    [hits + misses = lookups] still holds. *)

val entries : t -> string list
(** Basenames of the [.scdres] files currently in the store, sorted. *)

val quarantined : t -> string list
(** Basenames of the [*.corrupt] quarantine files currently in the store
    directory, sorted — on-disk evidence of past corruption. *)

val size_bytes : t -> int
(** Total payload bytes across {!entries}. *)

val clear : t -> int
(** Delete every entry (quarantined files included); returns how many live
    entries were removed. *)

val verify : t -> int * (string * string) list
(** Decode every entry: [(ok_count, [(file, error); ...])]. Stale-version
    files from before a schema or framing bump show up here as errors (they
    are otherwise ignored, since current keys hash to different
    filenames). *)
