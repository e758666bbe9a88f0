open Scd_util

type geometry = {
  size_bytes : int;
  ways : int;
  block_bytes : int;
}

(* Struct-of-arrays storage: way [w] of set [s] lives at slot [s * ways + w]
   in three parallel int arrays. An invalid line is encoded as [tags.(slot)
   = invalid_tag] (no real tag is negative), so the hit scan is a single
   int-compare loop with no per-line record, option or closure. *)
type t = {
  ways : int;
  set_mask : int;  (* sets - 1 *)
  block_shift : int;  (* log2 block_bytes, precomputed: used on every access *)
  set_shift : int;  (* log2 sets *)
  tags : int array;
  stamps : int array;
  mru : int array;
      (* Per set: the slot of the set's last hit or fill, checked before
         the way scan. Straight-line fetch walks one block for many
         consecutive instructions, so the first compare almost always
         hits; a tag lives in at most one way of its set, so the
         short-circuit's answer is the full scan's. The MRU slot holds its
         set's newest stamp, and stamps only order a set's ways, so an MRU
         hit changes no victim and stamps nothing. *)
  mutable tick : int;  (* advanced by each scan and fill *)
}

let invalid_tag = -1

let create geometry =
  let { size_bytes; ways; block_bytes; _ } = geometry in
  if size_bytes <= 0 || ways <= 0 || block_bytes <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  let blocks = size_bytes / block_bytes in
  if blocks mod ways <> 0 then
    invalid_arg "Cache.create: block count not a multiple of ways";
  let sets = blocks / ways in
  if not (Bits.is_power_of_two sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  if not (Bits.is_power_of_two block_bytes) then
    invalid_arg "Cache.create: block size must be a power of two";
  {
    ways;
    set_mask = sets - 1;
    block_shift = Bits.log2 block_bytes;
    set_shift = Bits.log2 sets;
    tags = Array.make blocks invalid_tag;
    stamps = Array.make blocks 0;
    mru = Array.init sets (fun s -> s * ways);
    tick = 0;
  }

(* Top-level tail recursion: a local [let rec] closure would capture its
   environment and allocate per call, which the hot path cannot afford. *)
let rec find_line tags tag stop s =
  if s > stop then -1
  else if tags.(s) = tag then s
  else find_line tags tag stop (s + 1)

let contains t ~addr =
  let block = addr lsr t.block_shift in
  let base = (block land t.set_mask) * t.ways in
  find_line t.tags (block lsr t.set_shift) (base + t.ways - 1) base >= 0

(* LRU victim scan from [s]: the first invalid line wins outright (stopping
   the scan, as in the original implementation); otherwise the strictly
   oldest stamp seen so far is carried in [victim]. *)
let rec pick_lru_line t stop victim s =
  if s > stop then victim
  else if t.tags.(s) = invalid_tag then s
  else
    pick_lru_line t stop
      (if t.stamps.(s) < t.stamps.(victim) then s else victim)
      (s + 1)

(* Everything but an MRU hit: the way scan and the LRU fill. Kept out of
   line so {!access}'s hit path inlines into its callers. *)
let[@inline never] access_slow t set tag =
  t.tick <- t.tick + 1;
  let base = set * t.ways in
  let stop = base + t.ways - 1 in
  let slot = find_line t.tags tag stop base in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.tick;
    t.mru.(set) <- slot;
    `Hit
  end
  else begin
    (* LRU victim (invalid lines first). *)
    let victim =
      if t.tags.(base) = invalid_tag then base
      else pick_lru_line t stop base (base + 1)
    in
    t.tags.(victim) <- tag;
    t.stamps.(victim) <- t.tick;
    t.mru.(set) <- victim;
    `Miss
  end

let[@inline] access t ~addr =
  let block = addr lsr t.block_shift in
  let set = block land t.set_mask in
  let tag = block lsr t.set_shift in
  (* MRU short-circuit: [mru.(set)] is always a slot of this set, and a
     tag lives in at most one way, so this is the line the scan would
     find. *)
  if t.tags.(t.mru.(set)) = tag then `Hit else access_slow t set tag
