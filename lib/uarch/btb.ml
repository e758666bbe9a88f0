open Scd_util

type replacement = Round_robin | Lru

type stats = {
  mutable branch_lookups : int;
  mutable branch_hits : int;
  mutable jte_lookups : int;
  mutable jte_hits : int;
  mutable jte_inserts : int;
  mutable branch_entries_evicted_by_jte : int;
  mutable branch_insert_blocked_by_jte : int;
  mutable jte_evictions : int;
  mutable jte_cap_replacements : int;
  mutable jte_cap_rejects : int;
}

(* Struct-of-arrays storage: way [w] of set [s] lives at slot [s * ways + w]
   in four parallel unboxed-int arrays. [meta] packs the valid bit (bit 0)
   and the J/B bit (bit 1); [tags], [targets] and [stamps] carry the rest of
   the entry. Compared to the previous array-of-records layout this keeps
   the whole table in four contiguous flat blocks (no per-entry boxes, no
   pointer chasing per way) and lets every probe/victim scan run as an
   int-compare loop that allocates nothing. *)
type t = {
  sets : int;
  set_shift : int;  (* log2 sets, precomputed: [tag_of] runs per BTB op *)
  ways : int;
  meta : int array;
  tags : int array;
  targets : int array;
  stamps : int array;
  replacement : replacement;
  rr_pointers : int array;
  jte_cap : int option;
  mutable jte_population : int;
  mutable tick : int;
  stats : stats;
}

let meta_valid = 1
let meta_jte = 2

(* Sentinel for the allocation-free lookup API: no simulated code address is
   negative, so [min_int] can never collide with a stored target. *)
let no_target = min_int

let fresh_stats () =
  {
    branch_lookups = 0;
    branch_hits = 0;
    jte_lookups = 0;
    jte_hits = 0;
    jte_inserts = 0;
    branch_entries_evicted_by_jte = 0;
    branch_insert_blocked_by_jte = 0;
    jte_evictions = 0;
    jte_cap_replacements = 0;
    jte_cap_rejects = 0;
  }

let create ~entries ~ways ~replacement ?jte_cap () =
  if ways <= 0 || entries <= 0 || entries mod ways <> 0 then
    invalid_arg "Btb.create: entries must be a positive multiple of ways";
  let sets = entries / ways in
  if not (Bits.is_power_of_two sets) then
    invalid_arg "Btb.create: set count must be a power of two";
  {
    sets;
    set_shift = Bits.log2 sets;
    ways;
    meta = Array.make entries 0;
    tags = Array.make entries 0;
    targets = Array.make entries 0;
    stamps = Array.make entries 0;
    replacement;
    rr_pointers = Array.make sets 0;
    jte_cap;
    jte_population = 0;
    tick = 0;
    stats = fresh_stats ();
  }

let index_of t key = (key lsr 2) land (t.sets - 1)
let tag_of t key = key lsr 2 lsr t.set_shift

(* Slot index of the matching way, or -1. The expected meta word fuses the
   valid-bit and namespace checks into one compare per way. Top-level tail
   recursion: a local [let rec] closure would capture its environment and
   allocate ~9 words per call, which the per-event hot path cannot afford. *)
let rec find_slot_from meta tags ~want ~tag base ways w =
  if w = ways then -1
  else
    let slot = base + w in
    if meta.(slot) = want && tags.(slot) = tag then slot
    else find_slot_from meta tags ~want ~tag base ways (w + 1)

let find_slot t ~jte ~key =
  let base = index_of t key * t.ways in
  let tag = tag_of t key in
  let want = if jte then meta_valid lor meta_jte else meta_valid in
  find_slot_from t.meta t.tags ~want ~tag base t.ways 0

let touch t slot =
  t.tick <- t.tick + 1;
  t.stamps.(slot) <- t.tick

let probe_target t ~jte ~key =
  let slot = find_slot t ~jte ~key in
  if slot < 0 then no_target else t.targets.(slot)

(* The hot entry point: one flat scan, a stats bump and (on a hit) an LRU
   touch — no option or tuple is ever allocated. *)
let lookup_target t ~jte ~key =
  (if jte then t.stats.jte_lookups <- t.stats.jte_lookups + 1
   else t.stats.branch_lookups <- t.stats.branch_lookups + 1);
  let slot = find_slot t ~jte ~key in
  if slot < 0 then no_target
  else begin
    (if jte then t.stats.jte_hits <- t.stats.jte_hits + 1
     else t.stats.branch_hits <- t.stats.branch_hits + 1);
    touch t slot;
    t.targets.(slot)
  end

(* Victim eligibility classes for [pick_victim]: any way, JTE ways only, or
   non-JTE ways only. An int tag instead of a closure keeps the victim scan
   allocation-free. *)
let elig_any = 0
let elig_jte = 1
let elig_not_jte = 2

let eligible t ~elig slot =
  if elig = elig_any then true
  else
    let m = t.meta.(slot) in
    let is_live_jte = m land (meta_valid lor meta_jte) = meta_valid lor meta_jte in
    if elig = elig_jte then is_live_jte else not is_live_jte

(* Invalid entries are always the first choice for eviction. *)
let rec find_invalid_way t ~elig base w =
  if w = t.ways then -1
  else
    let slot = base + w in
    if eligible t ~elig slot && t.meta.(slot) land meta_valid = 0 then w
    else find_invalid_way t ~elig base (w + 1)

(* Least-recently-touched eligible slot; [best] starts at -1 and ties keep
   the earliest way, matching the original for-loop scan. *)
let rec lru_victim t ~elig base best w =
  if w = t.ways then best
  else
    let slot = base + w in
    let best =
      if eligible t ~elig slot && (best < 0 || t.stamps.(slot) < t.stamps.(best))
      then slot
      else best
    in
    lru_victim t ~elig base best (w + 1)

(* Advance from the round-robin pointer until an eligible way is found
   (bounded scan); updates the pointer past the chosen way. *)
let rec rr_victim t ~elig ~set_index base start n =
  if n = t.ways then -1
  else
    let w = (start + n) mod t.ways in
    if eligible t ~elig (base + w) then begin
      t.rr_pointers.(set_index) <- (w + 1) mod t.ways;
      base + w
    end
    else rr_victim t ~elig ~set_index base start (n + 1)

(* Pick a victim slot among the ways of [set_index] in class [elig].
   Returns -1 when no way is eligible. *)
let pick_victim t set_index ~elig =
  let base = set_index * t.ways in
  let invalid = find_invalid_way t ~elig base 0 in
  if invalid >= 0 then begin
    (* Filling an invalid way must move a round-robin pointer that is
       sitting on it: otherwise the next conflict in this set would evict
       the entry we are about to install — the freshest one — instead of
       cycling through the older ways. *)
    (match t.replacement with
     | Round_robin ->
       if t.rr_pointers.(set_index) = invalid then
         t.rr_pointers.(set_index) <- (invalid + 1) mod t.ways
     | Lru -> ());
    base + invalid
  end
  else
    match t.replacement with
    | Lru -> lru_victim t ~elig base (-1) 0
    | Round_robin ->
      rr_victim t ~elig ~set_index base t.rr_pointers.(set_index) 0

(* [overwrite] installs an entry and maintains the JTE population; eviction
   accounting belongs to the callers, which know *why* the victim lost its
   way (capacity eviction vs cap-triggered replacement — the two are
   disjoint counters, see the stats docs in btb.mli). *)
let overwrite t slot ~jte ~key ~target =
  (* Maintain the JTE population across state changes. *)
  let m = t.meta.(slot) in
  let was_jte = m land (meta_valid lor meta_jte) = meta_valid lor meta_jte in
  if was_jte && not jte then t.jte_population <- t.jte_population - 1;
  if jte && not was_jte then t.jte_population <- t.jte_population + 1;
  t.meta.(slot) <- (if jte then meta_valid lor meta_jte else meta_valid);
  t.tags.(slot) <- tag_of t key;
  t.targets.(slot) <- target;
  touch t slot

let insert_jte t ~key ~target =
  t.stats.jte_inserts <- t.stats.jte_inserts + 1;
  let set_index = index_of t key in
  let slot = find_slot t ~jte:true ~key in
  if slot >= 0 then begin
    t.targets.(slot) <- target;
    touch t slot
  end
  else
    let at_cap =
      match t.jte_cap with Some cap -> t.jte_population >= cap | None -> false
    in
    if at_cap then begin
      (* Replace a resident JTE in the same set; if the set has none, the
         insertion is dropped (the population never exceeds the cap). *)
      let victim = pick_victim t set_index ~elig:elig_jte in
      if victim >= 0 then begin
        t.stats.jte_cap_replacements <- t.stats.jte_cap_replacements + 1;
        overwrite t victim ~jte:true ~key ~target
      end
      else t.stats.jte_cap_rejects <- t.stats.jte_cap_rejects + 1
    end
    else begin
      (* JTE priority: any way is eligible, branch entries included. *)
      let victim = pick_victim t set_index ~elig:elig_any in
      assert (victim >= 0) (* every way is eligible *);
      let m = t.meta.(victim) in
      if m land meta_valid <> 0 then
        if m land meta_jte <> 0 then
          t.stats.jte_evictions <- t.stats.jte_evictions + 1
        else
          t.stats.branch_entries_evicted_by_jte <-
            t.stats.branch_entries_evicted_by_jte + 1;
      overwrite t victim ~jte:true ~key ~target
    end

let insert_branch t ~key ~target =
  let set_index = index_of t key in
  let slot = find_slot t ~jte:false ~key in
  if slot >= 0 then begin
    t.targets.(slot) <- target;
    touch t slot
  end
  else begin
    (* Branch entries may never evict a JTE. *)
    let victim = pick_victim t set_index ~elig:elig_not_jte in
    if victim >= 0 then overwrite t victim ~jte:false ~key ~target
    else
      t.stats.branch_insert_blocked_by_jte <-
        t.stats.branch_insert_blocked_by_jte + 1
  end

let insert t ~jte ~key ~target =
  if jte then insert_jte t ~key ~target else insert_branch t ~key ~target

let flush_jtes t =
  let live = meta_valid lor meta_jte in
  for slot = 0 to Array.length t.meta - 1 do
    if t.meta.(slot) land live = live then
      t.meta.(slot) <- t.meta.(slot) land lnot meta_valid
  done;
  t.jte_population <- 0

let jte_population t = t.jte_population
let stats t = t.stats

let copy_stats (s : stats) = { s with branch_lookups = s.branch_lookups }

(* Field table backing the result codec; see the note on {!Stats.fields}. *)
let stats_fields =
  [
    ( "branch_lookups",
      (fun (s : stats) -> s.branch_lookups),
      fun (s : stats) v -> s.branch_lookups <- v );
    ("branch_hits", (fun s -> s.branch_hits), fun s v -> s.branch_hits <- v);
    ("jte_lookups", (fun s -> s.jte_lookups), fun s v -> s.jte_lookups <- v);
    ("jte_hits", (fun s -> s.jte_hits), fun s v -> s.jte_hits <- v);
    ("jte_inserts", (fun s -> s.jte_inserts), fun s v -> s.jte_inserts <- v);
    ( "branch_entries_evicted_by_jte",
      (fun s -> s.branch_entries_evicted_by_jte),
      fun s v -> s.branch_entries_evicted_by_jte <- v );
    ( "branch_insert_blocked_by_jte",
      (fun s -> s.branch_insert_blocked_by_jte),
      fun s v -> s.branch_insert_blocked_by_jte <- v );
    ("jte_evictions", (fun s -> s.jte_evictions), fun s v -> s.jte_evictions <- v);
    ( "jte_cap_replacements",
      (fun s -> s.jte_cap_replacements),
      fun s v -> s.jte_cap_replacements <- v );
    ( "jte_cap_rejects",
      (fun s -> s.jte_cap_rejects),
      fun s v -> s.jte_cap_rejects <- v );
  ]

let stats_to_assoc s = List.map (fun (name, get, _) -> (name, get s)) stats_fields

let stats_of_assoc assoc =
  let s = fresh_stats () in
  let missing =
    List.filter_map
      (fun (name, _, set) ->
        match List.assoc_opt name assoc with
        | Some v ->
          set s v;
          None
        | None -> Some name)
      stats_fields
  in
  match missing with
  | [] -> Ok s
  | names -> Error ("missing BTB stats fields: " ^ String.concat ", " names)
let entries t = t.sets * t.ways
let ways t = t.ways
let sets t = t.sets
let replacement t = t.replacement
let jte_cap t = t.jte_cap

(* Read-only introspection for the correctness checker (Scd_check): a pure
   snapshot of every way, in set-major order. *)
type entry_view = {
  view_valid : bool;
  view_jte : bool;
  view_tag : int;
  view_target : int;
}

let view t =
  Array.init t.sets (fun s ->
      Array.init t.ways (fun w ->
          let slot = (s * t.ways) + w in
          {
            view_valid = t.meta.(slot) land meta_valid <> 0;
            view_jte = t.meta.(slot) land meta_jte <> 0;
            view_tag = t.tags.(slot);
            view_target = t.targets.(slot);
          }))
