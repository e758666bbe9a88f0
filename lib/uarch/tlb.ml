(* Struct-of-arrays storage: slot [i] lives at index [i] of two parallel int
   arrays. An invalid slot holds [invalid_vpn] (no real VPN is negative), so
   both the hit scan and the victim scan are plain int loops that allocate
   nothing. *)
type t = {
  vpns : int array;
  stamps : int array;
  hint : int array;
      (* Slot-hint table, indexed by [vpn land hint_mask]: the slot of that
         entry's last hit or fill (0 before any), so always a valid slot
         index. The hit path checks the hinted slot before any scan. A VPN
         lives in at most one slot, so a hint that passes the check names
         the slot the scan would find, and a stale one (its slot since
         refilled by another VPN) fails the check and falls back to the
         scan: every answer, tick and stamp update is identical to the
         scan's. *)
  mutable tick : int;
}

let page_shift = 12
let invalid_vpn = -1
let hint_mask = 63 (* 64 hint entries *)

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    vpns = Array.make entries invalid_vpn;
    stamps = Array.make entries 0;
    hint = Array.make (hint_mask + 1) 0;
    tick = 0;
  }

(* Top-level tail recursion: a local [let rec] closure would capture its
   environment and allocate per call, which the hot path cannot afford. *)
let rec find_vpn vpns vpn entries i =
  if i = entries then -1
  else if vpns.(i) = vpn then i
  else find_vpn vpns vpn entries (i + 1)

(* LRU victim scan from [i]: the first invalid slot wins outright (stopping
   the scan, as in the original implementation); otherwise the strictly
   oldest stamp seen so far is carried in [victim]. *)
let rec pick_lru_slot t entries victim i =
  if i = entries then victim
  else if t.vpns.(i) = invalid_vpn then i
  else
    pick_lru_slot t entries
      (if t.stamps.(i) < t.stamps.(victim) then i else victim)
      (i + 1)

(* Everything but a hinted hit: the scan, the LRU fill and the hint
   refresh. Kept out of line so {!access}'s hit path inlines into its
   callers. *)
let[@inline never] access_slow t vpn h =
  let entries = Array.length t.vpns in
  let slot = find_vpn t.vpns vpn entries 0 in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.tick;
    t.hint.(h) <- slot;
    `Hit
  end
  else begin
    let victim =
      if t.vpns.(0) = invalid_vpn then 0 else pick_lru_slot t entries 0 1
    in
    t.vpns.(victim) <- vpn;
    t.stamps.(victim) <- t.tick;
    t.hint.(h) <- victim;
    `Miss
  end

let[@inline] access t ~addr =
  let vpn = addr lsr page_shift in
  t.tick <- t.tick + 1;
  let h = vpn land hint_mask in
  let s = t.hint.(h) in
  if t.vpns.(s) = vpn then begin
    t.stamps.(s) <- t.tick;
    `Hit
  end
  else access_slow t vpn h
