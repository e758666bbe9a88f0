open Scd_util

type kind =
  | Static_taken
  | Bimodal of { entries : int }
  | Gshare of { entries : int; history_bits : int }
  | Local of { history_entries : int; pattern_entries : int }
  | Tournament of {
      global_entries : int;
      local_history_entries : int;
      local_pattern_entries : int;
      chooser_entries : int;
    }

(* 2-bit saturating counter helpers; counters start weakly taken (2). *)
let counter_table n = Array.make n 2
let counter_taken c = c >= 2
let counter_update c taken = if taken then min 3 (c + 1) else max 0 (c - 1)

type state =
  | S_static
  | S_bimodal of int array
  | S_gshare of { counters : int array; history_bits : int; mutable history : int }
  | S_local of { histories : int array; patterns : int array }
  | S_tournament of {
      global : int array;
      mutable ghistory : int;
      local_histories : int array;
      local_patterns : int array;
      chooser : int array; (* 0..3: <2 prefers local, >=2 prefers global *)
    }

type t = { kind : kind; state : state }

let require_pow2 name n =
  if not (Bits.is_power_of_two n) then
    invalid_arg (Printf.sprintf "Direction.create: %s must be a power of two" name)

let create kind =
  let state =
    match kind with
    | Static_taken -> S_static
    | Bimodal { entries } ->
      require_pow2 "entries" entries;
      S_bimodal (counter_table entries)
    | Gshare { entries; history_bits } ->
      require_pow2 "entries" entries;
      S_gshare { counters = counter_table entries; history_bits; history = 0 }
    | Local { history_entries; pattern_entries } ->
      require_pow2 "history_entries" history_entries;
      require_pow2 "pattern_entries" pattern_entries;
      S_local
        {
          histories = Array.make history_entries 0;
          patterns = counter_table pattern_entries;
        }
    | Tournament { global_entries; local_history_entries; local_pattern_entries; chooser_entries }
      ->
      require_pow2 "global_entries" global_entries;
      require_pow2 "local_history_entries" local_history_entries;
      require_pow2 "local_pattern_entries" local_pattern_entries;
      require_pow2 "chooser_entries" chooser_entries;
      S_tournament
        {
          global = counter_table global_entries;
          ghistory = 0;
          local_histories = Array.make local_history_entries 0;
          local_patterns = counter_table local_pattern_entries;
          chooser = counter_table chooser_entries;
        }
  in
  { kind; state }

let pc_index pc n = (pc lsr 2) land (n - 1)

let gshare_index ~counters ~history_bits ~history pc =
  let n = Array.length counters in
  (pc lsr 2) lxor (history land Bits.mask history_bits) land (n - 1)

(* Index-returning helpers (prediction is [counter_taken table.(idx)]);
   returning the bare index instead of an (index, prediction) pair keeps the
   per-event predict/update calls free of tuple allocation. *)
let local_index ~histories ~patterns pc =
  let h = histories.(pc_index pc (Array.length histories)) in
  h land (Array.length patterns - 1)

let global_index ~global ~ghistory pc =
  ((pc lsr 2) lxor ghistory) land (Array.length global - 1)

let predict t ~pc =
  match t.state with
  | S_static -> true
  | S_bimodal counters -> counter_taken counters.(pc_index pc (Array.length counters))
  | S_gshare { counters; history_bits; history } ->
    counter_taken counters.(gshare_index ~counters ~history_bits ~history pc)
  | S_local { histories; patterns } ->
    counter_taken patterns.(local_index ~histories ~patterns pc)
  | S_tournament { global; ghistory; local_histories; local_patterns; chooser } ->
    let gpred = counter_taken global.(global_index ~global ~ghistory pc) in
    let lpred =
      counter_taken
        local_patterns.(local_index ~histories:local_histories
                          ~patterns:local_patterns pc)
    in
    let choose_global =
      counter_taken chooser.(pc_index pc (Array.length chooser))
    in
    if choose_global then gpred else lpred

let update t ~pc ~taken =
  match t.state with
  | S_static -> ()
  | S_bimodal counters ->
    let i = pc_index pc (Array.length counters) in
    counters.(i) <- counter_update counters.(i) taken
  | S_gshare s ->
    let i =
      gshare_index ~counters:s.counters ~history_bits:s.history_bits
        ~history:s.history pc
    in
    s.counters.(i) <- counter_update s.counters.(i) taken;
    s.history <- ((s.history lsl 1) lor if taken then 1 else 0)
                 land Bits.mask s.history_bits
  | S_local { histories; patterns } ->
    let hi = pc_index pc (Array.length histories) in
    let pi = histories.(hi) land (Array.length patterns - 1) in
    patterns.(pi) <- counter_update patterns.(pi) taken;
    histories.(hi) <-
      ((histories.(hi) lsl 1) lor if taken then 1 else 0) land 0x3FF
  | S_tournament s ->
    let gi = global_index ~global:s.global ~ghistory:s.ghistory pc in
    let gpred = counter_taken s.global.(gi) in
    let hi = pc_index pc (Array.length s.local_histories) in
    let pi = s.local_histories.(hi) land (Array.length s.local_patterns - 1) in
    let lpred = counter_taken s.local_patterns.(pi) in
    (* Train the chooser only when the components disagree. *)
    let ci = pc_index pc (Array.length s.chooser) in
    if not (Bool.equal gpred lpred) then
      s.chooser.(ci) <- counter_update s.chooser.(ci) (Bool.equal gpred taken);
    s.global.(gi) <- counter_update s.global.(gi) taken;
    s.local_patterns.(pi) <- counter_update s.local_patterns.(pi) taken;
    s.local_histories.(hi) <-
      ((s.local_histories.(hi) lsl 1) lor if taken then 1 else 0) land 0x3FF;
    s.ghistory <- ((s.ghistory lsl 1) lor if taken then 1 else 0) land 0xFFF

let kind t = t.kind
