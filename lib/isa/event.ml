(* Tags are ordered so that the control tags are contiguous
   ([tag_cond_branch] .. [tag_jru]); the pipeline's issue-group check
   relies on it. See event.mli for what each tag's payload words mean. *)
let tag_plain = 0
let tag_mem_read = 1
let tag_mem_write = 2
let tag_cond_branch = 3
let tag_jump = 4
let tag_ind_jump = 5
let tag_call = 6
let tag_return = 7
let tag_bop = 8
let tag_jru = 9
let tag_jte_flush = 10

(* A run of [arg1] consecutive plain instructions starting at [pc] and
   spaced [arg2] bytes apart, all sharing the cell's dispatch flag. The
   driver emits runs instead of individual plain cells, so straight-line
   handler code costs one cell instead of dozens; the pipeline consumes a
   run in aggregate with identical stats, cycles and cache/TLB traffic. *)
let tag_plain_run = 11

(* ------------------------------------------------------------------ *)
(* Flat event tape                                                     *)
(* ------------------------------------------------------------------ *)

(* One event = [cell_words] consecutive ints: [pc; flags; arg1; arg2],
   [flags] packing the tag in bits 0-3 and the booleans in bits 4-8. The
   buffer is preallocated and written in place, so steady-state emission
   allocates nothing; it doubles (rarely, only until the largest burst has
   been seen) on overflow. *)

let cell_words = 4
let flag_dispatch = 0x10
let flag_sets_rop = 0x20
let flag_taken = 0x40
let flag_hit = 0x80
let flag_indirect = 0x100

type tape = { mutable buf : int array; mutable len : int (* in words *) }

let tape_create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Event.tape_create: capacity";
  { buf = Array.make (capacity * cell_words) 0; len = 0 }

let tape_clear tape = tape.len <- 0
let tape_cells tape = tape.len / cell_words

(* Grow to hold at least [need] words: doubling, but never less than
   needed (template stamps can append many cells at once). *)
let[@inline never] tape_grow tape need =
  let cap = ref (2 * Array.length tape.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let buf = Array.make !cap 0 in
  Array.blit tape.buf 0 buf 0 tape.len;
  tape.buf <- buf

let tape_push tape ~pc ~flags ~arg1 ~arg2 =
  if tape.len + cell_words > Array.length tape.buf then
    tape_grow tape (tape.len + cell_words);
  let buf = tape.buf and i = tape.len in
  buf.(i) <- pc;
  buf.(i + 1) <- flags;
  buf.(i + 2) <- arg1;
  buf.(i + 3) <- arg2;
  tape.len <- i + cell_words

(* A run that continues the tape's last cell — a run with the same flags
   and stride whose next instruction would sit at [pc] — extends that cell
   instead of appending one: by the definition of a run cell the two
   stand for exactly the same instructions, and the consumer already
   splits runs wherever it must (at retire boundaries). *)
let tape_push_run tape ~pc ~dispatch ~count ~stride =
  let flags = tag_plain_run lor if dispatch then flag_dispatch else 0 in
  let last = tape.len - cell_words in
  let buf = tape.buf in
  if
    last >= 0
    && buf.(last + 1) = flags
    && buf.(last + 3) = stride
    && buf.(last) + (buf.(last + 2) * stride) = pc
  then buf.(last + 2) <- buf.(last + 2) + count
  else tape_push tape ~pc ~flags ~arg1:count ~arg2:stride

(* ------------------------------------------------------------------ *)
(* Template stamping                                                   *)
(* ------------------------------------------------------------------ *)

(* A template is an immutable [int array] of whole cells in the tape
   encoding above. Stamping appends it with one copy loop; the returned
   word base lets the producer patch the few run-dependent words in place
   ([tape_set_word]) instead of re-computing every cell. *)

let tape_extent tape = tape.len
let tape_words tape = tape.buf

(* Copy loops instead of [Array.blit]: on an int array whose destination
   lives in the major heap, the generic blit calls the write barrier
   ([caml_modify]) once per word, while a typed int store compiles to a
   plain move — stamping is one of the hottest paths in a co-simulated
   run. Both loops copy a whole cell per iteration. *)
let tape_blit tape (src : int array) =
  let words = Array.length src in
  let base = tape.len in
  if base + words > Array.length tape.buf then tape_grow tape (base + words);
  let buf = tape.buf in
  let k = ref 0 in
  while !k < words do
    buf.(base + !k) <- src.(!k);
    buf.(base + !k + 1) <- src.(!k + 1);
    buf.(base + !k + 2) <- src.(!k + 2);
    buf.(base + !k + 3) <- src.(!k + 3);
    k := !k + cell_words
  done;
  tape.len <- base + words;
  base

(* Stamp a base-relative template: word 0 of every cell (the PC) is
   offset by [pc_delta]; payload words are absolute and copied as-is. *)
let tape_blit_reloc tape (src : int array) ~pc_delta =
  let words = Array.length src in
  let base = tape.len in
  if base + words > Array.length tape.buf then tape_grow tape (base + words);
  let buf = tape.buf in
  let k = ref 0 in
  while !k < words do
    buf.(base + !k) <- src.(!k) + pc_delta;
    buf.(base + !k + 1) <- src.(!k + 1);
    buf.(base + !k + 2) <- src.(!k + 2);
    buf.(base + !k + 3) <- src.(!k + 3);
    k := !k + cell_words
  done;
  tape.len <- base + words;
  base

let tape_set_word tape i v = tape.buf.(i) <- v

(* Copy out words [from, tape.len) — template capture after a cell-by-cell
   emission. *)
let tape_snapshot tape ~from =
  Array.sub tape.buf from (tape.len - from)

(* Raw cell accessors, for tests that inspect a batch cell by cell. *)
let tape_cell_tag tape i = tape.buf.((i * cell_words) + 1) land 0xF
let tape_cell_pc tape i = tape.buf.(i * cell_words)
let tape_cell_arg1 tape i = tape.buf.((i * cell_words) + 2)
let tape_cell_arg2 tape i = tape.buf.((i * cell_words) + 3)
