(* Host-speed calibration kernel.

   On a shared host, other tenants can slow a core by up to ~2x for seconds
   at a time, and the slowdown hits branchy, code-heavy loops like the
   co-simulator's far harder than simple arithmetic or memory loops. This
   kernel is a frozen miniature of such a loop — a tag-dispatched
   interpreter driving a cache tag array and a two-bit branch predictor —
   kept in the benchmark's own files so that no change to the simulator can
   move it. Its time, taken next to each cell, measures how fast the host
   is running that kind of code at that moment, and the benchmark reports
   host times rescaled to a reference host on which one {!sample} takes
   {!reference_s}. *)

let reference_s = 0.002
let steps = 200_000

let program_size = 4096
let cache_sets = 4096
let predictor_entries = 1024

(* A fixed pseudo-random program: tag in bits 0-3, operands above. *)
let program =
  let x = ref 0x2545F491 in
  Array.init program_size (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      !x)

type state = {
  regs : int array;
  tags : int array;
  predictor : int array;
  stack : int array;
  mutable sp : int;
  mutable hits : int;
  mutable misses : int;
  mutable mispredicts : int;
}

(* One state, reset per run, so that sampling allocates nothing. *)
let s =
  { regs = Array.make 16 1; tags = Array.make cache_sets (-1);
    predictor = Array.make predictor_entries 1; stack = Array.make 64 0;
    sp = 0; hits = 0; misses = 0; mispredicts = 0 }

let reset () =
  Array.fill s.regs 0 16 1;
  Array.fill s.tags 0 cache_sets (-1);
  Array.fill s.predictor 0 predictor_entries 1;
  s.sp <- 0;
  s.hits <- 0;
  s.misses <- 0;
  s.mispredicts <- 0

let access s addr =
  let set = (addr lsr 4) land (cache_sets - 1) in
  let tag = addr lsr 16 in
  if s.tags.(set) = tag then s.hits <- s.hits + 1
  else begin
    s.misses <- s.misses + 1;
    s.tags.(set) <- tag
  end

let branch s pc taken =
  let i = pc land (predictor_entries - 1) in
  let c = s.predictor.(i) in
  if c >= 2 <> taken then s.mispredicts <- s.mispredicts + 1;
  s.predictor.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1))

let step s pc =
  let w = program.(pc) in
  let a = (w lsr 4) land 15 and b = (w lsr 8) land 15 and k = w lsr 12 in
  let r = s.regs in
  match w land 15 with
  | 0 -> r.(a) <- r.(a) + r.(b); pc + 1
  | 1 -> r.(a) <- r.(a) lxor (r.(b) lsl 1); pc + 1
  | 2 -> r.(a) <- (r.(b) * 31) + k; pc + 1
  | 3 -> access s (r.(b) + k); r.(a) <- r.(a) + 1; pc + 1
  | 4 -> access s (r.(a) lxor k); pc + 1
  | 5 | 6 ->
    let taken = (r.(a) + r.(b)) land 1 = 0 in
    branch s pc taken;
    if taken then (pc + (k land 63) + 1) land (program_size - 1) else pc + 1
  | 7 -> (k + r.(a)) land (program_size - 1)
  | 8 when s.sp < 63 ->
    s.stack.(s.sp) <- pc + 1;
    s.sp <- s.sp + 1;
    k land (program_size - 1)
  | 9 when s.sp > 0 ->
    s.sp <- s.sp - 1;
    s.stack.(s.sp) land (program_size - 1)
  | 10 -> r.(a) <- r.(a) land (r.(b) lor k); pc + 1
  | 11 -> r.(a) <- r.(b) - r.(a); pc + 1
  | 12 -> access s (pc lsl 4); pc + 1
  | _ -> r.(a) <- r.(a) + k; pc + 1

(** Seconds one fixed run of the kernel takes now. *)
let sample () =
  reset ();
  let t0 = Monotonic_clock.now () in
  let pc = ref 0 in
  for _ = 1 to steps do
    pc := step s !pc land (program_size - 1)
  done;
  ignore (Sys.opaque_identity (s.hits + s.mispredicts + s.regs.(0)) : int);
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(** [t] host seconds, measured while a {!sample} took [calib] seconds,
    rescaled to the reference host. [sensitivity] is how strongly the
    measured work slows with the kernel: the log-ratio of their slowdowns
    between contended and quiet phases of the host (1 for work like the
    kernel's own). *)
let rescale ?(sensitivity = 1.0) t ~calib =
  t *. ((reference_s /. calib) ** sensitivity)
