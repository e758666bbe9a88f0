open Scd_uarch
open Scd_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* BTB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_btb_hit_miss () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  check_int "cold miss" Btb.no_target (Btb.lookup_target b ~jte:false ~key:0x1000);
  Btb.insert b ~jte:false ~key:0x1000 ~target:0x2000;
  check_int "hit" 0x2000 (Btb.lookup_target b ~jte:false ~key:0x1000)

let test_btb_namespaces_disjoint () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x40 ~target:1;
  Btb.insert b ~jte:true ~key:0x40 ~target:2;
  check_int "branch entry" 1 (Btb.lookup_target b ~jte:false ~key:0x40);
  check_int "jte entry" 2 (Btb.lookup_target b ~jte:true ~key:0x40)

let test_btb_jte_priority () =
  (* a 1-set 2-way table: JTEs may evict branch entries, not vice versa *)
  let b = Btb.create ~entries:2 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x20 ~target:2;
  Btb.insert b ~jte:true ~key:0x30 ~target:3;
  Btb.insert b ~jte:true ~key:0x40 ~target:4;
  check_int "both JTEs resident" 2 (Btb.jte_population b);
  Btb.insert b ~jte:false ~key:0x50 ~target:5;
  check_int "branch insert cannot evict a JTE" 2 (Btb.jte_population b);
  check_int "blocked insert recorded" 1 (Btb.stats b).branch_insert_blocked_by_jte

let test_btb_jte_cap () =
  let b = Btb.create ~entries:64 ~ways:2 ~replacement:Lru ~jte_cap:4 () in
  for opcode = 0 to 15 do
    Btb.insert b ~jte:true ~key:(opcode lsl 2) ~target:(0x100 + opcode)
  done;
  check_bool "population bounded by cap" true (Btb.jte_population b <= 4)

let test_btb_flush_jtes () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:true ~key:0x8 ~target:1;
  Btb.insert b ~jte:false ~key:0x100 ~target:2;
  Btb.flush_jtes b;
  check_int "no jtes" 0 (Btb.jte_population b);
  check_int "jte gone" Btb.no_target (Btb.probe_target b ~jte:true ~key:0x8);
  check_int "branch survives" 2 (Btb.probe_target b ~jte:false ~key:0x100)

let test_btb_lru_replacement () =
  let b = Btb.create ~entries:2 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x20 ~target:2;
  ignore (Btb.lookup_target b ~jte:false ~key:0x10); (* refresh first entry *)
  Btb.insert b ~jte:false ~key:0x30 ~target:3; (* evicts 0x20 *)
  check_bool "refreshed survives" true
    (Btb.probe_target b ~jte:false ~key:0x10 <> Btb.no_target);
  check_int "lru victim gone" Btb.no_target
    (Btb.probe_target b ~jte:false ~key:0x20)

let test_btb_update_existing () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Round_robin () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x10 ~target:9;
  check_int "target updated" 9 (Btb.probe_target b ~jte:false ~key:0x10)

let test_btb_bad_geometry () =
  Alcotest.check_raises "non-multiple"
    (Invalid_argument "Btb.create: entries must be a positive multiple of ways")
    (fun () -> ignore (Btb.create ~entries:10 ~ways:4 ~replacement:Lru ()))

(* Regression for the round-robin fill bug: filling an invalid way must
   advance a pointer sitting on it, so the freshest entry is not the next
   conflict's victim. Pins the exact victim sequence on a 1-set 4-way
   table across a flush/refill cycle. *)
let test_btb_rr_fill_advances_pointer () =
  let b = Btb.create ~entries:4 ~ways:4 ~replacement:Round_robin () in
  let jkey i = i lsl 2 and bkey i = (0x100 + i) lsl 2 in
  (* fill the set: two JTEs (ways 0-1), two branch entries (ways 2-3) *)
  Btb.insert b ~jte:true ~key:(jkey 0) ~target:10;
  Btb.insert b ~jte:true ~key:(jkey 1) ~target:11;
  Btb.insert b ~jte:false ~key:(bkey 2) ~target:12;
  Btb.insert b ~jte:false ~key:(bkey 3) ~target:13;
  (* a context switch invalidates the JTE ways *)
  Btb.flush_jtes b;
  (* refill: each insert lands in an invalid way and must push the pointer
     past it (the buggy version left the pointer parked on way 0) *)
  Btb.insert b ~jte:true ~key:(jkey 4) ~target:14;
  Btb.insert b ~jte:true ~key:(jkey 5) ~target:15;
  (* the set is full again; the next JTE's victim must be the *oldest*
     entry (a branch way), not the JTE installed two inserts ago *)
  Btb.insert b ~jte:true ~key:(jkey 6) ~target:16;
  check_int "fresh JTE survives the conflict" 14
    (Btb.probe_target b ~jte:true ~key:(jkey 4));
  check_int "second fresh JTE survives too" 15
    (Btb.probe_target b ~jte:true ~key:(jkey 5));
  check_bool "a branch way was the victim" true
    (Btb.probe_target b ~jte:false ~key:(bkey 2) = Btb.no_target
     || Btb.probe_target b ~jte:false ~key:(bkey 3) = Btb.no_target);
  check_int "victim accounted as a branch eviction" 1
    (Btb.stats b).branch_entries_evicted_by_jte;
  check_int "no JTE eviction on the refill path" 0
    (Btb.stats b).jte_evictions

(* Regression for the eviction double count: a cap-triggered replacement
   bumps jte_cap_replacements only, never jte_evictions. *)
let test_btb_cap_replacement_not_eviction () =
  let b = Btb.create ~entries:4 ~ways:4 ~replacement:Round_robin ~jte_cap:1 () in
  Btb.insert b ~jte:true ~key:(1 lsl 2) ~target:1;
  Btb.insert b ~jte:true ~key:(2 lsl 2) ~target:2;
  check_int "population stays at the cap" 1 (Btb.jte_population b);
  check_int "replacement counted" 1 (Btb.stats b).jte_cap_replacements;
  check_int "replacement is not an eviction" 0 (Btb.stats b).jte_evictions;
  (* uncapped displacement, by contrast, is an eviction *)
  let u = Btb.create ~entries:2 ~ways:2 ~replacement:Round_robin () in
  Btb.insert u ~jte:true ~key:(1 lsl 2) ~target:1;
  Btb.insert u ~jte:true ~key:(2 lsl 2) ~target:2;
  Btb.insert u ~jte:true ~key:(3 lsl 2) ~target:3;
  check_int "displacement counted as eviction" 1 (Btb.stats u).jte_evictions;
  check_int "displacement is not a cap replacement" 0
    (Btb.stats u).jte_cap_replacements

(* Random insert/lookup/flush sequences against the reference model and
   the invariant auditor, across both replacement policies and cap
   settings (the geometries listed in Scd_check.Stress). *)
let prop_btb_matches_reference_model =
  QCheck.Test.make ~name:"real BTB tracks the reference model" ~count:60
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      match Scd_check.Stress.run ~ops:250 ~seed:(Int64.of_int seed) () with
      | None -> true
      | Some divergence -> QCheck.Test.fail_report divergence)

let prop_btb_auditor_accepts_random_sequences =
  QCheck.Test.make ~name:"auditor holds under random op sequences" ~count:100
    QCheck.(pair (oneofl [ Btb.Round_robin; Btb.Lru ])
              (pair (oneofl [ None; Some 2; Some 5 ])
                 (small_list (pair bool (int_bound 127)))))
    (fun (replacement, (jte_cap, operations)) ->
      let b = Btb.create ~entries:16 ~ways:4 ~replacement ?jte_cap () in
      List.iteri
        (fun i (jte, k) ->
          if i mod 9 = 8 then Btb.flush_jtes b
          else if k land 1 = 0 then Btb.insert b ~jte ~key:(k lsl 2) ~target:k
          else ignore (Btb.lookup_target b ~jte ~key:(k lsl 2));
          match Scd_check.Audit.run b with
          | () -> ()
          | exception Scd_check.Audit.Violation m -> QCheck.Test.fail_report m)
        operations;
      true)

let prop_btb_population_invariant =
  QCheck.Test.make ~name:"jte_population matches resident JTEs" ~count:200
    QCheck.(small_list (pair bool (int_bound 255)))
    (fun operations ->
      let b = Btb.create ~entries:16 ~ways:4 ~replacement:Lru () in
      List.iter
        (fun (jte, k) -> Btb.insert b ~jte ~key:(k lsl 2) ~target:k)
        operations;
      let resident = ref 0 in
      for k = 0 to 255 do
        if Btb.probe_target b ~jte:true ~key:(k lsl 2) <> Btb.no_target then
          incr resident
      done;
      Btb.jte_population b = !resident && Btb.jte_population b <= 16)

(* ------------------------------------------------------------------ *)
(* Direction predictors                                                *)
(* ------------------------------------------------------------------ *)

let train_and_predict kind ~pattern ~rounds =
  let p = Direction.create kind in
  let pc = 0x4000 in
  for _ = 1 to rounds do
    List.iter
      (fun taken ->
        ignore (Direction.predict p ~pc);
        Direction.update p ~pc ~taken)
      pattern
  done;
  p

let test_bimodal_learns_bias () =
  let p = train_and_predict (Bimodal { entries = 64 }) ~pattern:[ true ] ~rounds:10 in
  check_bool "predicts taken" true (Direction.predict p ~pc:0x4000)

let test_gshare_learns_alternation () =
  (* a strict T/N alternation is history-predictable *)
  let p = Direction.create (Gshare { entries = 256; history_bits = 8 }) in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 1 to 200 do
    let taken = i mod 2 = 0 in
    if Direction.predict p ~pc = taken && i > 100 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "near-perfect on alternation" true (!correct >= 95)

let test_local_learns_short_loop () =
  (* pattern TTTN repeating: local history catches it *)
  let p = Direction.create (Local { history_entries = 64; pattern_entries = 1024 }) in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 0 to 399 do
    let taken = i mod 4 <> 3 in
    if Direction.predict p ~pc = taken && i > 200 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "learns the loop" true (!correct >= 180)

let test_tournament_beats_components_weakness () =
  let kind =
    Direction.Tournament
      { global_entries = 512; local_history_entries = 128;
        local_pattern_entries = 512; chooser_entries = 512 }
  in
  let p = Direction.create kind in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 0 to 399 do
    let taken = i mod 4 <> 3 in
    if Direction.predict p ~pc = taken && i > 200 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "tournament adapts" true (!correct >= 170)

let test_static_taken () =
  let p = Direction.create Static_taken in
  check_bool "always taken" true (Direction.predict p ~pc:0);
  Direction.update p ~pc:0 ~taken:false;
  check_bool "still taken" true (Direction.predict p ~pc:0)

(* ------------------------------------------------------------------ *)
(* RAS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ras_lifo () =
  let r = Ras.create ~depth:4 in
  Ras.push r 1;
  Ras.push r 2;
  check_int "pop 2" 2 (Ras.pop_target r);
  check_int "pop 1" 1 (Ras.pop_target r);
  check_int "empty" Ras.no_target (Ras.pop_target r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~depth:2 in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3; (* overwrites 1 *)
  check_int "top" 3 (Ras.pop_target r);
  check_int "next" 2 (Ras.pop_target r);
  check_int "oldest lost" Ras.no_target (Ras.pop_target r)

(* Block testbench: named boundary cases, then a reference model. *)

let empty = Ras.no_target

let check_pops name expected r =
  Alcotest.(check (list int))
    name expected
    (List.map (fun _ -> Ras.pop_target r) expected)

let test_ras_empty_pop () =
  let r = Ras.create ~depth:3 in
  check_int "the sentinel on a fresh stack" Ras.no_target (Ras.pop_target r);
  Ras.push r 7;
  check_pops "drained, then empty" [ 7; empty; empty ] r;
  check_int "an empty pop leaves occupancy at zero" 0 (Ras.occupancy r);
  Ras.push r 8;
  check_pops "usable after empty pops" [ 8; empty ] r

let test_ras_exactly_full () =
  let r = Ras.create ~depth:3 in
  List.iter (Ras.push r) [ 1; 2; 3 ];
  check_int "full" 3 (Ras.occupancy r);
  check_pops "every entry survives, newest first" [ 3; 2; 1; empty ] r

let test_ras_one_past_full () =
  let r = Ras.create ~depth:3 in
  List.iter (Ras.push r) [ 1; 2; 3; 4 ];
  check_int "occupancy saturates at the depth" 3 (Ras.occupancy r);
  check_pops "the oldest entry is overwritten" [ 4; 3; 2; empty ] r

let test_ras_pop_after_wrap () =
  (* the top index wraps past the end of the slots and back *)
  let r = Ras.create ~depth:3 in
  List.iter (Ras.push r) [ 1; 2; 3; 4; 5 ];
  check_pops "two pops across the wrap" [ 5; 4 ] r;
  List.iter (Ras.push r) [ 6; 7 ];
  check_pops "refilled over the wrap point" [ 7; 6; 3; empty ] r

(* Reference: a list, newest first, truncated to the depth on every push
   (overwriting the oldest entry). *)
let prop_ras_matches_reference =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 8)
        (list_size (int_bound 200)
           (frequency [ (3, map (fun v -> Some v) (int_bound 1000)); (2, return None) ])))
  in
  QCheck.Test.make ~name:"ras matches a depth-bounded list reference" ~count:300
    (QCheck.make
       ~print:(fun (depth, ops) ->
         Printf.sprintf "depth %d: %s" depth
           (String.concat " "
              (List.map
                 (function Some v -> Printf.sprintf "push %d" v | None -> "pop")
                 ops)))
       gen)
    (fun (depth, ops) ->
      let r = Ras.create ~depth in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
           | Some v ->
             Ras.push r v;
             model := List.filteri (fun i _ -> i < depth) (v :: !model);
             true
           | None -> (
             match !model with
             | [] -> Ras.pop_target r = Ras.no_target
             | top :: rest ->
               model := rest;
               Ras.pop_target r = top))
          && Ras.occupancy r = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Cache and TLB                                                       *)
(* ------------------------------------------------------------------ *)

let small_geometry = { Cache.size_bytes = 256; ways = 2; block_bytes = 64 }

let test_cache_hit_after_miss () =
  let c = Cache.create small_geometry in
  Alcotest.(check bool) "miss" true (Cache.access c ~addr:0x100 = `Miss);
  Alcotest.(check bool) "hit same block" true (Cache.access c ~addr:0x13F = `Hit);
  Alcotest.(check bool) "miss next block" true (Cache.access c ~addr:0x140 = `Miss)

let test_cache_lru_eviction () =
  (* 256B / 64B blocks / 2-way = 2 sets; addresses 0, 128, 256 share set 0 *)
  let c = Cache.create small_geometry in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:128);
  ignore (Cache.access c ~addr:0); (* refresh *)
  ignore (Cache.access c ~addr:256); (* evicts 128 *)
  check_bool "refreshed stays" true (Cache.contains c ~addr:0);
  check_bool "victim gone" false (Cache.contains c ~addr:128)

(* The cache keeps no counters (the pipeline counts accesses and misses in
   [Stats]); its answers are the statistics. *)
let test_cache_stats () =
  let c = Cache.create small_geometry in
  let results = List.map (fun addr -> Cache.access c ~addr) [ 0; 4 ] in
  let count r = List.length (List.filter (( = ) r) results) in
  check_int "misses" 1 (count `Miss);
  check_int "hits" 1 (count `Hit)

let test_cache_bad_geometry () =
  Alcotest.check_raises "block size"
    (Invalid_argument "Cache.create: block size must be a power of two")
    (fun () ->
      ignore (Cache.create { Cache.size_bytes = 240; ways = 1; block_bytes = 60 }))

(* The per-set MRU-way short-circuit must change nothing observable: replay
   a conflict-heavy random access stream against a reference model of the
   pre-change cache (plain way scan + LRU victim, no MRU slot) and require
   the same hit/miss answer on every access and the same victim on every
   miss — the evicted block must be gone from the real cache, and at the
   end every reference-resident block must still be present. *)
let test_cache_mru_matches_reference_lru () =
  let geometry =
    { Cache.size_bytes = 512; ways = 4; block_bytes = 32 }
  in
  let sets = 4 (* 512 / 32 blocks / 4 ways *) and ways = 4 in
  let set_shift = 2 and block_shift = 5 in
  let c = Cache.create geometry in
  let r_tags = Array.make_matrix sets ways (-1) in
  let r_stamps = Array.make_matrix sets ways 0 in
  let tick = ref 0 in
  let rng = Random.State.make [| 0xCA0E |] in
  let misses = ref 0 and real_misses = ref 0 and real_hits = ref 0 in
  for i = 1 to 10_000 do
    (* a small address pool keeps every set under constant conflict, and
       repeats both exercise the MRU slot and defeat it *)
    let addr = Random.State.int rng 4096 in
    let block = addr lsr block_shift in
    let set = block land (sets - 1) in
    let tag = block lsr set_shift in
    incr tick;
    let way = ref (-1) in
    for w = 0 to ways - 1 do
      if !way < 0 && r_tags.(set).(w) = tag then way := w
    done;
    let expected, evicted =
      if !way >= 0 then begin
        r_stamps.(set).(!way) <- !tick;
        (`Hit, -1)
      end
      else begin
        incr misses;
        let victim = ref (-1) in
        for w = ways - 1 downto 0 do
          if r_tags.(set).(w) = -1 then victim := w
        done;
        if !victim < 0 then begin
          victim := 0;
          for w = 1 to ways - 1 do
            if r_stamps.(set).(w) < r_stamps.(set).(!victim) then victim := w
          done
        end;
        let old = r_tags.(set).(!victim) in
        r_tags.(set).(!victim) <- tag;
        r_stamps.(set).(!victim) <- !tick;
        (`Miss, old)
      end
    in
    let got = Cache.access c ~addr in
    (match got with `Hit -> incr real_hits | `Miss -> incr real_misses);
    if got <> expected then
      Alcotest.failf "access %d (addr 0x%x): hit/miss diverged from the
        reference LRU" i addr;
    if evicted >= 0 then begin
      let victim_addr = ((evicted lsl set_shift) lor set) lsl block_shift in
      if Cache.contains c ~addr:victim_addr then
        Alcotest.failf "access %d (addr 0x%x): evicted a different victim
          than the reference LRU" i addr
    end
  done;
  for set = 0 to sets - 1 do
    for w = 0 to ways - 1 do
      if r_tags.(set).(w) >= 0 then
        check_bool "reference-resident block is resident" true
          (Cache.contains c
             ~addr:(((r_tags.(set).(w) lsl set_shift) lor set) lsl block_shift))
    done
  done;
  check_int "same misses" !misses !real_misses;
  check_int "same hits" (10_000 - !misses) !real_hits

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"resident blocks bounded by capacity" ~count:100
    QCheck.(small_list (int_bound 0xFFFF))
    (fun addrs ->
      let c = Cache.create small_geometry in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      let resident = ref 0 in
      for block = 0 to 0xFFFF / 64 do
        if Cache.contains c ~addr:(block * 64) then incr resident
      done;
      !resident <= 4)

(* Cache block testbench: named cases on a 4-set cache of 64-byte blocks.
   [blk ~set tag] is block [tag] of set [set]; every case is also what a
   plain scan-and-LRU cache answers, so the MRU-way check must change
   none of them. *)
let tb_cache ~ways =
  Cache.create { Cache.size_bytes = 4 * ways * 64; ways; block_bytes = 64 }

let blk ?(offset = 0) ~set tag = (64 * ((4 * tag) + set)) + offset
let accesses c addrs = List.map (fun addr -> Cache.access c ~addr) addrs

let check_accesses name expected got =
  let show = List.map (function `Hit -> "hit" | `Miss -> "miss") in
  Alcotest.(check (list string)) name (show expected) (show got)

let check_resident c name ~set tags expected =
  List.iter
    (fun tag ->
      check_bool (Printf.sprintf "%s: tag %d" name tag) expected
        (Cache.contains c ~addr:(blk ~set tag)))
    tags

let test_cache_tb_hit_after_fill () =
  let c = tb_cache ~ways:2 in
  check_accesses "the fill misses, then the block's first and last bytes hit"
    [ `Miss; `Hit; `Hit ]
    (accesses c [ blk ~set:1 7; blk ~set:1 7; blk ~offset:63 ~set:1 7 ]);
  check_resident c "resident" ~set:1 [ 7 ] true

let test_cache_tb_second_way () =
  (* the second tag fills the invalid way instead of evicting the first *)
  let c = tb_cache ~ways:2 in
  check_accesses "both tags fill, then both hit" [ `Miss; `Miss; `Hit; `Hit ]
    (accesses c [ blk ~set:2 1; blk ~set:2 2; blk ~set:2 1; blk ~set:2 2 ]);
  check_resident c "both ways resident" ~set:2 [ 1; 2 ] true

let test_cache_tb_exactly_full () =
  let c = tb_cache ~ways:4 in
  let tags = [ 0; 1; 2; 3 ] in
  check_accesses "four fills" [ `Miss; `Miss; `Miss; `Miss ]
    (accesses c (List.map (blk ~set:3) tags));
  check_accesses "every way survives" [ `Hit; `Hit; `Hit; `Hit ]
    (accesses c (List.map (blk ~set:3) (List.rev tags)))

let test_cache_tb_one_past_full () =
  let c = tb_cache ~ways:4 in
  ignore (accesses c (List.map (blk ~set:0) [ 0; 1; 2; 3 ]));
  check_accesses "a fifth tag misses" [ `Miss ] (accesses c [ blk ~set:0 4 ]);
  check_resident c "the LRU way is evicted" ~set:0 [ 0 ] false;
  check_resident c "the other ways stay" ~set:0 [ 1; 2; 3; 4 ] true;
  check_accesses "the next fill evicts the next oldest" [ `Miss ]
    (accesses c [ blk ~set:0 0 ]);
  check_resident c "second victim" ~set:0 [ 1 ] false

let test_cache_tb_scan_hit_refreshes () =
  (* A fills, B fills, A hits through the way scan (B is the MRU way) *)
  let c = tb_cache ~ways:2 in
  let a = blk ~set:3 0 and b = blk ~set:3 1 in
  check_accesses "fills, a scan hit, a third tag" [ `Miss; `Miss; `Hit; `Miss ]
    (accesses c [ a; b; a; blk ~set:3 2 ]);
  check_bool "the other way is the victim" false (Cache.contains c ~addr:b);
  check_bool "the hit way stays" true (Cache.contains c ~addr:a)

let test_cache_tb_mru_hit_refreshes () =
  (* A fills, B fills, A hits through the way scan and becomes the MRU
     way, then hits twice through the MRU-way check: B is the LRU way *)
  let c = tb_cache ~ways:2 in
  let a = blk ~set:1 0 and b = blk ~set:1 1 and d = blk ~set:1 2 in
  check_accesses "fills and hits" [ `Miss; `Miss; `Hit; `Hit; `Hit ]
    (accesses c [ a; b; a; a; a ]);
  check_accesses "a third tag misses" [ `Miss ] (accesses c [ d ]);
  check_bool "the other way is the victim" false (Cache.contains c ~addr:b);
  check_bool "the MRU way stays" true (Cache.contains c ~addr:a);
  (* and the same through the MRU check alone: d is now the MRU way *)
  check_accesses "the MRU way hits" [ `Hit; `Miss ] (accesses c [ d; b ]);
  check_bool "a was the LRU way" false (Cache.contains c ~addr:a)

let test_cache_tb_sets_independent () =
  let c = tb_cache ~ways:2 in
  ignore (accesses c [ blk ~set:1 0; blk ~set:1 1 ]);
  (* churn the neighbouring sets past their capacity *)
  ignore
    (accesses c
       (List.concat_map
          (fun tag -> [ blk ~set:0 tag; blk ~set:2 tag ])
          [ 0; 1; 2; 3; 4 ]));
  check_accesses "set 1 keeps both ways" [ `Hit; `Hit ]
    (accesses c [ blk ~set:1 0; blk ~set:1 1 ]);
  check_resident c "set 0 holds its two newest" ~set:0 [ 3; 4 ] true;
  check_resident c "set 2 holds its two newest" ~set:2 [ 3; 4 ] true;
  check_resident c "set 3 is untouched" ~set:3 [ 0; 1; 2; 3; 4 ] false

let test_tlb () =
  let t = Tlb.create ~entries:2 in
  Alcotest.(check bool) "miss" true (Tlb.access t ~addr:0x1000 = `Miss);
  Alcotest.(check bool) "hit same page" true (Tlb.access t ~addr:0x1FFF = `Hit);
  ignore (Tlb.access t ~addr:0x2000);
  ignore (Tlb.access t ~addr:0x1000); (* refresh *)
  ignore (Tlb.access t ~addr:0x5000); (* evicts 0x2000 *)
  Alcotest.(check bool) "lru evicted" true (Tlb.access t ~addr:0x2000 = `Miss)

(* TLB block testbench. The TLB checks a per-VPN slot hint before its slot
   scan; the hint must be checked, never trusted, so every case below is
   also what a plain scan-and-LRU TLB answers. VPNs [v] and [v + 64] share
   a hint entry. *)
let tlb_results ~entries vpns =
  let t = Tlb.create ~entries in
  List.map (fun v -> Tlb.access t ~addr:((v lsl Tlb.page_shift) + 0x123)) vpns

let check_tlb_results name expected got =
  Alcotest.(check (list string)) name
    (List.map (function `Hit -> "hit" | `Miss -> "miss") expected)
    (List.map (function `Hit -> "hit" | `Miss -> "miss") got)

let test_tlb_shared_hint_entry () =
  check_tlb_results "both VPNs stay resident and hit"
    [ `Miss; `Miss; `Hit; `Hit; `Hit; `Hit ]
    (tlb_results ~entries:4 [ 3; 67; 3; 67; 67; 3 ])

let test_tlb_hinted_slot_refilled () =
  (* 1 fills slot 0, 2 slot 1; 3 evicts the LRU slot 0 and refills it, so
     1's hint names a slot that now holds 3: 1 must miss *)
  check_tlb_results "refilled by a VPN with another hint entry"
    [ `Miss; `Miss; `Miss; `Miss ]
    (tlb_results ~entries:2 [ 1; 2; 3; 1 ]);
  (* the same with the refilling VPN on 1's own hint entry *)
  check_tlb_results "refilled by a VPN on the same hint entry"
    [ `Miss; `Miss; `Miss; `Miss ]
    (tlb_results ~entries:2 [ 1; 2; 65; 1 ])

let test_tlb_fills_invalid_slots_first () =
  (* while an invalid slot remains no resident VPN is evicted, however
     recently it was used *)
  check_tlb_results "four VPNs fill four slots"
    [ `Miss; `Miss; `Hit; `Miss; `Miss; `Hit; `Hit; `Hit; `Hit ]
    (tlb_results ~entries:4 [ 10; 20; 10; 30; 40; 20; 10; 30; 40 ])

let test_tlb_lru_victim_order () =
  (* 3 entries; after each miss the least recently used VPN leaves:
     D evicts B, B evicts C, C evicts D, D evicts B, B evicts A, A evicts
     C *)
  let a = 1 and b = 2 and c = 3 and d = 4 in
  check_tlb_results "victims in LRU order"
    [ `Miss; `Miss; `Miss; `Hit; `Miss; `Miss; `Hit; `Miss; `Miss; `Hit;
      `Hit; `Hit; `Miss; `Miss ]
    (tlb_results ~entries:3 [ a; b; c; a; d; b; a; c; d; a; c; d; b; a ])

(* A list-based reference LRU: most recent first, at most [entries] long.
   Returns the answer and, on a miss with the TLB full, the victim. *)
let ref_lru_access ~entries lru vpn =
  if List.mem vpn !lru then begin
    lru := vpn :: List.filter (fun v -> v <> vpn) !lru;
    (`Hit, None)
  end
  else if List.length !lru < entries then begin
    lru := vpn :: !lru;
    (`Miss, None)
  end
  else begin
    let rev = List.rev !lru in
    lru := vpn :: List.rev (List.tl rev);
    (`Miss, Some (List.hd rev))
  end

(* Random conflict-heavy VPN streams (24 VPNs on 4 hint entries, random
   in-page offsets, 1-12 slots): the TLB must give the reference's answer
   on every access and evict the reference's victim on every miss. A
   victim is checked on a fresh TLB replayed to the same point (the TLB
   has no side-effect-free probe): the victim must miss there. *)
let prop_tlb_matches_reference_lru =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 12)
        (list_size (int_bound 300)
           (map3
              (fun h k off -> (((64 * k) + h) lsl Tlb.page_shift) + off)
              (int_bound 3) (int_bound 5) (int_bound 4095))))
  in
  QCheck.Test.make ~name:"tlb matches a reference LRU on conflict-heavy streams"
    ~count:300
    (QCheck.make
       ~print:(fun (entries, addrs) ->
         Printf.sprintf "entries %d: %s" entries
           (String.concat " " (List.map (Printf.sprintf "%#x") addrs)))
       gen)
    (fun (entries, addrs) ->
      let t = Tlb.create ~entries in
      let lru = ref [] in
      let replay prefix =
        let t = Tlb.create ~entries in
        List.iter (fun addr -> ignore (Tlb.access t ~addr)) (List.rev prefix);
        t
      in
      let rec go prefix = function
        | [] -> true
        | addr :: rest ->
          let expected, victim =
            ref_lru_access ~entries lru (addr lsr Tlb.page_shift)
          in
          let prefix = addr :: prefix in
          Tlb.access t ~addr = expected
          && (match victim with
              | None -> true
              | Some v ->
                Tlb.access (replay prefix) ~addr:(v lsl Tlb.page_shift)
                = `Miss)
          && go prefix rest
      in
      go [] addrs)

(* ------------------------------------------------------------------ *)
(* Indirect prediction                                                 *)
(* ------------------------------------------------------------------ *)

let test_vbbi_separates_hints () =
  let btb = Btb.create ~entries:256 ~ways:2 ~replacement:Lru () in
  let vbbi = Indirect.create Vbbi btb in
  let pc = 0x4000 in
  Indirect.update_target vbbi ~pc ~hint:1 ~target:0x100;
  Indirect.update_target vbbi ~pc ~hint:2 ~target:0x200;
  check_int "hint 1" 0x100 (Indirect.predict_target vbbi ~pc ~hint:1);
  check_int "hint 2" 0x200 (Indirect.predict_target vbbi ~pc ~hint:2)

let test_pc_btb_conflates_targets () =
  let btb = Btb.create ~entries:256 ~ways:2 ~replacement:Lru () in
  let p = Indirect.create Pc_btb btb in
  let pc = 0x4000 in
  Indirect.update_target p ~pc ~hint:1 ~target:0x100;
  Indirect.update_target p ~pc ~hint:2 ~target:0x200;
  check_int "last target wins regardless of hint" 0x200
    (Indirect.predict_target p ~pc ~hint:1)

let test_ttc_uses_history () =
  (* in a steady loop the path history cycles, so after a training pass the
     tagged target cache starts hitting *)
  let btb = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  let t = Indirect.create (Ttc { entries = 256 }) btb in
  let pc = 0x4000 in
  let hits = ref 0 in
  for _ = 1 to 64 do
    if Indirect.predict_target t ~pc ~hint:Indirect.no_hint = 0x100 then
      incr hits;
    Indirect.update_target t ~pc ~hint:Indirect.no_hint ~target:0x100
  done;
  check_bool "hits once history repeats" true (!hits > 32)

let test_ittage_monomorphic () =
  let btb = Btb.create ~entries:64 ~ways:2 ~replacement:Lru () in
  let p = Indirect.create (Ittage { table_entries = 256; tables = 4 }) btb in
  let pc = 0x4000 in
  let hits = ref 0 in
  for _ = 1 to 50 do
    if Indirect.predict_target p ~pc ~hint:Indirect.no_hint = 0x100 then
      incr hits;
    Indirect.update_target p ~pc ~hint:Indirect.no_hint ~target:0x100
  done;
  check_bool "monomorphic target learned" true (!hits >= 45)

let test_ittage_beats_btb_on_alternation () =
  (* a strict two-target alternation at one PC: the PC-indexed BTB always
     predicts the previous target (0% accuracy); history tables learn it *)
  let accuracy scheme =
    let btb = Btb.create ~entries:64 ~ways:2 ~replacement:Lru () in
    let p = Indirect.create scheme btb in
    let pc = 0x4000 in
    let correct = ref 0 in
    for i = 0 to 399 do
      let target = if i land 1 = 0 then 0x100 else 0x200 in
      if i >= 200 && Indirect.predict_target p ~pc ~hint:Indirect.no_hint = target
      then incr correct;
      Indirect.update_target p ~pc ~hint:Indirect.no_hint ~target
    done;
    !correct
  in
  let btb_correct = accuracy Pc_btb in
  let ittage_correct = accuracy (Ittage { table_entries = 512; tables = 4 }) in
  check_bool "BTB fails on alternation" true (btb_correct < 20);
  check_bool "ITTAGE learns the pattern" true (ittage_correct > 150)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

(* Feed one instruction to the pipeline as a one-cell tape batch. *)
let consume1 p ?(arg1 = 0) ?(arg2 = -1) ~flags pc =
  let tape = Event.tape_create ~capacity:1 () in
  Event.tape_push tape ~pc ~flags ~arg1 ~arg2;
  Pipeline.consume_tape p tape

let consume_plains p n =
  for i = 0 to n - 1 do
    consume1 p ~flags:Event.tag_plain (0x1000 + (4 * i))
  done

let test_pipeline_counts_instructions () =
  let p = Pipeline.create Config.simulator in
  consume_plains p 100;
  check_int "instructions" 100 (Pipeline.stats p).instructions;
  check_bool "cycles >= instructions (single issue)" true
    ((Pipeline.stats p).cycles >= 100)

let test_pipeline_dual_issue () =
  (* keep every fetch inside one block so cold I-cache misses do not mask
     the issue-width effect *)
  let same_block p =
    for _ = 1 to 1000 do
      consume1 p ~flags:Event.tag_plain 0x1000
    done
  in
  let p1 = Pipeline.create Config.simulator in
  same_block p1;
  let p2 = Pipeline.create Config.high_end in
  same_block p2;
  check_bool "dual issue is faster on plain code" true
    ((Pipeline.stats p2).cycles < (Pipeline.stats p1).cycles);
  check_bool "dual issue near half cycles" true
    ((Pipeline.stats p2).cycles <= 700)

let taken_branch = Event.tag_cond_branch lor Event.flag_taken

let test_pipeline_branch_penalty () =
  let p = Pipeline.create Config.simulator in
  (* an unpredicted taken conditional branch must cost the flush penalty *)
  let before = (Pipeline.stats p).cycles in
  consume1 p ~flags:taken_branch ~arg1:0x2000 0x1000;
  let cost = (Pipeline.stats p).cycles - before in
  check_bool "at least issue + penalty" true
    (cost >= 1 + Config.simulator.branch_penalty)

let test_pipeline_branch_learning () =
  let p = Pipeline.create Config.simulator in
  for _ = 1 to 50 do
    consume1 p ~flags:taken_branch ~arg1:0x2000 0x1000
  done;
  let s = Pipeline.stats p in
  check_bool "mispredicts settle" true (s.cond_mispredicts < 10);
  check_int "all counted" 50 s.cond_branches

let test_pipeline_return_address_stack () =
  let p = Pipeline.create Config.simulator in
  consume1 p ~flags:Event.tag_call ~arg1:0x5000 0x1000;
  consume1 p ~flags:Event.tag_return ~arg1:0x1004 0x5000;
  check_int "no return misprediction" 0 (Pipeline.stats p).return_mispredicts;
  consume1 p ~flags:Event.tag_return ~arg1:0x9999 0x5000;
  check_int "empty RAS mispredicts" 1 (Pipeline.stats p).return_mispredicts

let rop_producer = Event.tag_plain lor Event.flag_sets_rop

let test_pipeline_bop_accounting () =
  let p = Pipeline.create Config.simulator in
  (* a .op producer directly followed by bop must stall *)
  consume1 p ~flags:rop_producer 0x1000;
  consume1 p ~flags:(Event.tag_bop lor Event.flag_hit) ~arg1:0x2000 ~arg2:3
    0x1004;
  let s = Pipeline.stats p in
  check_int "bop counted" 1 s.bop_count;
  check_int "bop hit counted" 1 s.bop_hits;
  check_bool "stall bubbles charged" true (s.bop_stall_cycles > 0)

let test_pipeline_no_stall_with_distance () =
  let p = Pipeline.create Config.simulator in
  consume1 p ~flags:rop_producer 0x1000;
  consume_plains p 5;
  consume1 p ~flags:Event.tag_bop ~arg1:0x2008 ~arg2:3 0x2004;
  check_int "no stall at distance" 0 (Pipeline.stats p).bop_stall_cycles

let test_pipeline_icache_per_block () =
  let p = Pipeline.create Config.simulator in
  consume_plains p 32; (* 32 instrs = 2 blocks *)
  let s = Pipeline.stats p in
  check_int "one access per fetched block" 2 s.icache_accesses

let test_pipeline_dispatch_attribution () =
  let p = Pipeline.create Config.simulator in
  consume1 p ~flags:(Event.tag_plain lor Event.flag_dispatch) 0x1000;
  consume1 p ~flags:Event.tag_plain 0x1004;
  let s = Pipeline.stats p in
  check_int "dispatch instructions" 1 s.dispatch_instructions;
  check_int "total" 2 s.instructions

(* Drain [batches] of raw [| pc; flags; arg1; arg2 |] cells through a fresh
   pipeline with a retire boundary every [every] instructions: the
   instruction counts at which it fired, and the final statistics. *)
let drain_cells config ~every batches =
  let p = Pipeline.create config in
  let fired = ref [] in
  Pipeline.set_retire_boundary p ~every (fun () ->
      fired := (Pipeline.stats p).instructions :: !fired);
  let tape = Event.tape_create () in
  List.iter
    (fun batch ->
      Event.tape_clear tape;
      List.iter
        (fun c ->
          Event.tape_push tape ~pc:c.(0) ~flags:c.(1) ~arg1:c.(2) ~arg2:c.(3))
        batch;
      Pipeline.consume_tape p tape)
    batches;
  (List.rev !fired, Stats.to_assoc (Pipeline.stats p))

(* The reference: every run expanded into the single plain cells it stands
   for, each cell drained as a batch of its own. *)
let single_cells cells =
  List.concat_map
    (fun c ->
      if c.(1) land 0xF <> Event.tag_plain_run then [ [ c ] ]
      else
        List.init c.(2) (fun k ->
            [ [| c.(0) + (k * c.(3));
                 Event.tag_plain lor (c.(1) land Event.flag_dispatch);
                 0; -1 |] ]))
    cells

(* A retire boundary fires right after the instruction that reaches each
   multiple of [every]; a run cell straddling one is consumed in pieces
   around the callback. The same instructions with every run expanded into
   single plain cells must give the same callback points and identical
   statistics, on single issue (aggregate run consumption) and dual issue
   (per-instruction run consumption). *)
let test_pipeline_retire_boundary_splits_runs () =
  let cell ?(arg1 = 0) flags pc = [| pc; flags; arg1; -1 |] in
  let mem flags pc = cell flags pc ~arg1:(0x8000 + (pc land 0xFF)) in
  let run ~dispatch pc count stride =
    [| pc;
       Event.tag_plain_run lor (if dispatch then Event.flag_dispatch else 0);
       count; stride |]
  in
  (* instruction counts: 1, +5 = 6, +1 = 7 (boundary on a single cell),
     +9 = 16 (14 inside), +1, +16 = 33 (21 and 28 inside), +1, +1 = 35
     (a one-instruction run ending on a boundary), +14 = 49 (42 inside, 49
     at its end), +2 = 51 *)
  let cells =
    [ mem Event.tag_mem_read 0x1000;
      run ~dispatch:false 0x1004 5 4;
      cell Event.tag_plain 0x1018;
      run ~dispatch:false 0x101c 9 12;
      mem Event.tag_mem_write 0x1090;
      run ~dispatch:true 0x2000 16 4;
      cell (Event.tag_cond_branch lor Event.flag_taken) ~arg1:0x3000 0x2040;
      run ~dispatch:true 0x3000 1 4;
      run ~dispatch:false 0x3004 14 4;
      cell Event.tag_plain 0x303c;
      cell Event.tag_plain 0x3040 ]
  in
  (* two batches, the second opening mid-interval *)
  let batches =
    [ List.filteri (fun i _ -> i < 4) cells;
      List.filteri (fun i _ -> i >= 4) cells ]
  in
  List.iter
    (fun (name, config) ->
      let fired, stats = drain_cells config ~every:7 batches in
      let ref_fired, ref_stats =
        drain_cells config ~every:7 (single_cells cells)
      in
      Alcotest.(check (list int))
        (name ^ ": fires at each multiple of 7")
        [ 7; 14; 21; 28; 35; 42; 49 ] fired;
      Alcotest.(check (list int)) (name ^ ": same points as single cells")
        ref_fired fired;
      check_bool (name ^ ": stats equal single plain cells") true
        (stats = ref_stats))
    [ ("single issue", Config.simulator); ("dual issue", Config.high_end) ]

(* The same property over random cell streams: every tag, run cells
   included, cut into random batches under a random retire-boundary period,
   must fire at the same points and leave the same statistics as the
   stream with every run expanded into single plain cells and drained one
   cell per batch — where the boundary check after every cell is a plain
   per-instruction counter. *)
let gen_cell =
  let open QCheck.Gen in
  let pc = map (fun i -> 0x1000 + (4 * i)) (int_bound 511) in
  let target = map (fun i -> 0x2000 + (4 * i)) (int_bound 511) in
  let addr = map (fun i -> 0x8000 + (4 * i)) (int_bound 1023) in
  let bits = map (fun b -> b lsl 4) (int_bound 0x1F) in
  let cell tag arg1 arg2 =
    map3 (fun pc bits (arg1, arg2) -> [| pc; tag lor bits; arg1; arg2 |])
      pc bits (pair arg1 arg2)
  in
  let none = return (-1) in
  let opcode = int_bound 63 in
  frequency
    [ (4, cell Event.tag_plain (return 0) none);
      (6, cell Event.tag_plain_run (int_range 1 40) (oneofl [ 4; 12 ]));
      (2, cell Event.tag_mem_read addr none);
      (2, cell Event.tag_mem_write addr none);
      (2, cell Event.tag_cond_branch target none);
      (1, cell Event.tag_jump target none);
      (1, cell Event.tag_ind_jump target (oneof [ none; opcode ]));
      (1, cell Event.tag_call target (oneof [ none; target ]));
      (1, cell Event.tag_return target none);
      (1, cell Event.tag_bop target opcode);
      (1, cell Event.tag_jru target (oneof [ none; opcode ]));
      (1, cell Event.tag_jte_flush (return 0) none) ]

(* A cell and whether its batch ends after it. *)
let gen_cell_stream =
  QCheck.Gen.(
    pair (int_range 1 50) (list_size (int_bound 200) (pair gen_cell bool)))

let print_cell_stream (every, cells) =
  Printf.sprintf "every %d: %s" every
    (String.concat "; "
       (List.map
          (fun (c, cut) ->
            Printf.sprintf "[%#x %#x %d %d]%s" c.(0) c.(1) c.(2) c.(3)
              (if cut then " |" else ""))
          cells))

let prop_tape_runs_match_single_cells =
  QCheck.Test.make
    ~name:"random cell streams: batched run cells match single plain cells"
    ~count:200
    (QCheck.make ~print:print_cell_stream gen_cell_stream)
    (fun (every, cells) ->
      let batches =
        let rec split cur acc = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | (c, cut) :: rest ->
            if cut then split [] (List.rev (c :: cur) :: acc) rest
            else split (c :: cur) acc rest
        in
        split [] [] cells
      in
      let singles = single_cells (List.map fst cells) in
      List.for_all
        (fun config ->
          drain_cells config ~every batches = drain_cells config ~every singles)
        [ Config.simulator; Config.high_end ])

(* An oracle for the pipeline's fetch and memory hit paths: a test-only
   timing model of plain, memory, conditional-branch and jump cells, on
   the same TLB, cache and predictor structures, whose fetch looks up the
   I-TLB and the I-cache on every block change. The pipeline skips the
   I-TLB lookup while the page stays the same; a same-page lookup only
   re-stamps the slot holding the TLB's newest stamp, so the two must
   agree on every counter, cycles included. *)
type ref_pipeline = {
  cfg : Config.t;
  st : Stats.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t option;
  dir : Direction.t;
  rbtb : Btb.t;
  mutable last_block : int;
  mutable pair_open : bool;
  mutable group_has_mem : bool;
}

let ref_pipeline (cfg : Config.t) =
  {
    cfg;
    st = Stats.create ();
    itlb = Tlb.create ~entries:cfg.itlb_entries;
    dtlb = Tlb.create ~entries:cfg.dtlb_entries;
    icache = Cache.create cfg.icache;
    dcache = Cache.create cfg.dcache;
    l2 = Option.map Cache.create cfg.l2;
    dir = Direction.create cfg.direction;
    rbtb =
      Btb.create ~entries:cfg.btb_entries ~ways:cfg.btb_ways
        ~replacement:cfg.btb_replacement ?jte_cap:cfg.jte_cap ();
    last_block = -1;
    pair_open = false;
    group_has_mem = false;
  }

let ref_stall r n = r.st.cycles <- r.st.cycles + n

let ref_miss_below r addr =
  match r.l2 with
  | None -> ref_stall r r.cfg.mem_latency
  | Some l2 -> (
    match Cache.access l2 ~addr with
    | `Hit -> ref_stall r r.cfg.l2_latency
    | `Miss ->
      r.st.l2_misses <- r.st.l2_misses + 1;
      ref_stall r (r.cfg.l2_latency + r.cfg.mem_latency))

let ref_fetch r pc =
  let block = pc / r.cfg.icache.block_bytes in
  if block <> r.last_block then begin
    r.last_block <- block;
    (match Tlb.access r.itlb ~addr:pc with
     | `Hit -> ()
     | `Miss ->
       r.st.itlb_misses <- r.st.itlb_misses + 1;
       ref_stall r r.cfg.tlb_penalty);
    r.st.icache_accesses <- r.st.icache_accesses + 1;
    match Cache.access r.icache ~addr:pc with
    | `Hit -> ()
    | `Miss ->
      r.st.icache_misses <- r.st.icache_misses + 1;
      ref_miss_below r pc
  end

let ref_consume r c =
  let pc = c.(0) and flags = c.(1) and arg1 = c.(2) in
  let tag = flags land 0xF in
  let dispatch = flags land Event.flag_dispatch <> 0 in
  let mem = tag = Event.tag_mem_read || tag = Event.tag_mem_write in
  let st = r.st in
  st.instructions <- st.instructions + 1;
  if dispatch then st.dispatch_instructions <- st.dispatch_instructions + 1;
  ref_fetch r pc;
  (* issue: pair into an open slot unless mem follows mem; a control
     instruction closes its group *)
  if r.pair_open && not (mem && r.group_has_mem) then begin
    r.pair_open <- false;
    if mem then r.group_has_mem <- true
  end
  else begin
    st.cycles <- st.cycles + 1;
    r.pair_open <- r.cfg.issue_width > 1;
    r.group_has_mem <- mem
  end;
  if tag = Event.tag_cond_branch || tag = Event.tag_jump then
    r.pair_open <- false;
  if mem then begin
    (match Tlb.access r.dtlb ~addr:arg1 with
     | `Hit -> ()
     | `Miss ->
       st.dtlb_misses <- st.dtlb_misses + 1;
       ref_stall r r.cfg.tlb_penalty);
    st.dcache_accesses <- st.dcache_accesses + 1;
    match Cache.access r.dcache ~addr:arg1 with
    | `Hit -> ()
    | `Miss ->
      st.dcache_misses <- st.dcache_misses + 1;
      ref_miss_below r arg1
  end
  else if tag = Event.tag_cond_branch then begin
    let taken = flags land Event.flag_taken <> 0 in
    st.cond_branches <- st.cond_branches + 1;
    let predicted = Direction.predict r.dir ~pc in
    let target =
      if predicted then Btb.lookup_target r.rbtb ~jte:false ~key:pc
      else Btb.no_target
    in
    if predicted <> taken then begin
      st.cond_mispredicts <- st.cond_mispredicts + 1;
      ref_stall r r.cfg.branch_penalty;
      r.pair_open <- false;
      if dispatch then st.mispredicts_dispatch <- st.mispredicts_dispatch + 1
    end
    else if taken && target = Btb.no_target then begin
      st.direct_target_misses <- st.direct_target_misses + 1;
      ref_stall r r.cfg.direct_bubble
    end;
    Direction.update r.dir ~pc ~taken;
    if taken then Btb.insert r.rbtb ~jte:false ~key:pc ~target:arg1
  end
  else if tag = Event.tag_jump then begin
    st.direct_jumps <- st.direct_jumps + 1;
    if Btb.lookup_target r.rbtb ~jte:false ~key:pc = Btb.no_target then begin
      st.direct_target_misses <- st.direct_target_misses + 1;
      ref_stall r r.cfg.direct_bubble;
      Btb.insert r.rbtb ~jte:false ~key:pc ~target:arg1
    end
  end

(* Single-cell streams whose PCs walk 24 pages (more than either I-TLB
   holds): mostly sequential, with block skips, same-page jumps and jumps
   to any page, so fetches cross into neighbouring pages both by falling
   off a page's end and by jumping. Data addresses span 64 pages. *)
let gen_fetch_stream =
  let open QCheck.Gen in
  let move =
    frequency
      [ (5, return `Next);
        (2, return `Next_block);
        (2, map (fun o -> `Same_page o) (int_bound 1023));
        (2, map2 (fun p o -> `Page (p, o)) (int_bound 23) (int_bound 1023)) ]
  in
  let kind =
    frequency
      [ (4, return `Plain);
        (3, map2 (fun w a -> `Mem (w, a)) bool (int_bound 4095));
        (2, map (fun taken -> `Cond taken) bool);
        (1, return `Jump) ]
  in
  list_size (int_bound 400) (triple move kind bool)

let fetch_stream_cells moves =
  let page_base = 0x40000 in
  let _, cells =
    List.fold_left
      (fun (pc, acc) (move, kind, dispatch) ->
        let pc =
          match move with
          | `Next -> pc + 4
          | `Next_block -> (pc lor 63) + 1
          | `Same_page o -> (pc land lnot 4095) + (4 * o)
          | `Page (p, o) -> page_base + (p * 4096) + (4 * o)
        in
        let d = if dispatch then Event.flag_dispatch else 0 in
        let cell =
          match kind with
          | `Plain -> [| pc; Event.tag_plain lor d; 0; -1 |]
          | `Mem (write, a) ->
            [| pc;
               (if write then Event.tag_mem_write else Event.tag_mem_read)
               lor d;
               0x100000 + (a * 64); -1 |]
          | `Cond taken ->
            [| pc;
               Event.tag_cond_branch lor d
               lor (if taken then Event.flag_taken else 0);
               pc + 64; -1 |]
          | `Jump -> [| pc; Event.tag_jump lor d; pc + 128; -1 |]
        in
        (pc, cell :: acc))
      (page_base + 4092, []) moves
  in
  List.rev cells

let prop_fetch_matches_unfiltered_reference =
  QCheck.Test.make
    ~name:"random single-cell streams: page-filtered fetch matches a \
           per-block-change lookup"
    ~count:300
    (QCheck.make
       ~print:(fun moves ->
         String.concat "; "
           (List.map
              (fun c -> Printf.sprintf "[%#x %#x %#x]" c.(0) c.(1) c.(2))
              (fetch_stream_cells moves)))
       gen_fetch_stream)
    (fun moves ->
      let cells = fetch_stream_cells moves in
      List.for_all
        (fun config ->
          let p = Pipeline.create config in
          let tape = Event.tape_create () in
          List.iter
            (fun c ->
              Event.tape_push tape ~pc:c.(0) ~flags:c.(1) ~arg1:c.(2)
                ~arg2:c.(3))
            cells;
          Pipeline.consume_tape p tape;
          let r = ref_pipeline config in
          List.iter (ref_consume r) cells;
          (* every counter: itlb_misses, icache_accesses/misses, cycles
             and the rest *)
          Stats.to_assoc (Pipeline.stats p) = Stats.to_assoc r.st)
        [ Config.simulator; Config.high_end ])

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_with_btb_entries () =
  let c = Config.with_btb_entries Config.simulator 64 in
  check_int "entries" 64 c.btb_entries;
  check_int "ways preserved" 2 c.btb_ways;
  let fa = Config.with_btb_entries Config.fpga 32 in
  check_int "fully associative stays fully associative" 32 fa.btb_ways

let test_config_table2_parameters () =
  check_int "sim BTB" 256 Config.simulator.btb_entries;
  check_int "sim RAS" 8 Config.simulator.ras_depth;
  check_int "fpga BTB" 62 Config.fpga.btb_entries;
  check_int "fpga RAS" 2 Config.fpga.ras_depth;
  check_int "sim icache" (16 * 1024) Config.simulator.icache.size_bytes;
  check_int "sim dcache" (32 * 1024) Config.simulator.dcache.size_bytes;
  check_int "high-end issue" 2 Config.high_end.issue_width

let () =
  Alcotest.run "scd_uarch"
    [
      ( "btb",
        [
          Alcotest.test_case "hit/miss" `Quick test_btb_hit_miss;
          Alcotest.test_case "namespaces" `Quick test_btb_namespaces_disjoint;
          Alcotest.test_case "jte priority" `Quick test_btb_jte_priority;
          Alcotest.test_case "jte cap" `Quick test_btb_jte_cap;
          Alcotest.test_case "flush" `Quick test_btb_flush_jtes;
          Alcotest.test_case "lru" `Quick test_btb_lru_replacement;
          Alcotest.test_case "update existing" `Quick test_btb_update_existing;
          Alcotest.test_case "bad geometry" `Quick test_btb_bad_geometry;
          Alcotest.test_case "rr fill advances pointer" `Quick
            test_btb_rr_fill_advances_pointer;
          Alcotest.test_case "cap replacement is not eviction" `Quick
            test_btb_cap_replacement_not_eviction;
          QCheck_alcotest.to_alcotest prop_btb_matches_reference_model;
          QCheck_alcotest.to_alcotest prop_btb_auditor_accepts_random_sequences;
          QCheck_alcotest.to_alcotest prop_btb_population_invariant;
        ] );
      ( "direction",
        [
          Alcotest.test_case "bimodal" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "gshare" `Quick test_gshare_learns_alternation;
          Alcotest.test_case "local" `Quick test_local_learns_short_loop;
          Alcotest.test_case "tournament" `Quick test_tournament_beats_components_weakness;
          Alcotest.test_case "static" `Quick test_static_taken;
        ] );
      ( "ras",
        [
          Alcotest.test_case "lifo" `Quick test_ras_lifo;
          Alcotest.test_case "overflow" `Quick test_ras_overflow_wraps;
          Alcotest.test_case "empty pop" `Quick test_ras_empty_pop;
          Alcotest.test_case "exactly full" `Quick test_ras_exactly_full;
          Alcotest.test_case "one past full" `Quick test_ras_one_past_full;
          Alcotest.test_case "pop after wrap" `Quick test_ras_pop_after_wrap;
          QCheck_alcotest.to_alcotest prop_ras_matches_reference;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          Alcotest.test_case "mru way matches reference lru" `Quick
            test_cache_mru_matches_reference_lru;
          QCheck_alcotest.to_alcotest prop_cache_never_exceeds_capacity;
          Alcotest.test_case "tb: hit after fill" `Quick
            test_cache_tb_hit_after_fill;
          Alcotest.test_case "tb: same set takes the second way" `Quick
            test_cache_tb_second_way;
          Alcotest.test_case "tb: exactly full" `Quick test_cache_tb_exactly_full;
          Alcotest.test_case "tb: one past full" `Quick
            test_cache_tb_one_past_full;
          Alcotest.test_case "tb: scan hit refreshes recency" `Quick
            test_cache_tb_scan_hit_refreshes;
          Alcotest.test_case "tb: mru hit refreshes recency" `Quick
            test_cache_tb_mru_hit_refreshes;
          Alcotest.test_case "tb: sets independent" `Quick
            test_cache_tb_sets_independent;
          Alcotest.test_case "tlb" `Quick test_tlb;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "two vpns share a hint entry" `Quick
            test_tlb_shared_hint_entry;
          Alcotest.test_case "hinted slot evicted and refilled" `Quick
            test_tlb_hinted_slot_refilled;
          Alcotest.test_case "fills take invalid slots first" `Quick
            test_tlb_fills_invalid_slots_first;
          Alcotest.test_case "lru victim order" `Quick test_tlb_lru_victim_order;
          QCheck_alcotest.to_alcotest prop_tlb_matches_reference_lru;
        ] );
      ( "indirect",
        [
          Alcotest.test_case "vbbi hints" `Quick test_vbbi_separates_hints;
          Alcotest.test_case "pc-btb conflates" `Quick test_pc_btb_conflates_targets;
          Alcotest.test_case "ttc" `Quick test_ttc_uses_history;
          Alcotest.test_case "ittage monomorphic" `Quick test_ittage_monomorphic;
          Alcotest.test_case "ittage vs btb" `Quick test_ittage_beats_btb_on_alternation;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "instruction count" `Quick test_pipeline_counts_instructions;
          Alcotest.test_case "dual issue" `Quick test_pipeline_dual_issue;
          Alcotest.test_case "branch penalty" `Quick test_pipeline_branch_penalty;
          Alcotest.test_case "branch learning" `Quick test_pipeline_branch_learning;
          Alcotest.test_case "ras" `Quick test_pipeline_return_address_stack;
          Alcotest.test_case "bop accounting" `Quick test_pipeline_bop_accounting;
          Alcotest.test_case "bop distance" `Quick test_pipeline_no_stall_with_distance;
          Alcotest.test_case "icache per block" `Quick test_pipeline_icache_per_block;
          Alcotest.test_case "dispatch attribution" `Quick test_pipeline_dispatch_attribution;
          Alcotest.test_case "retire boundary splits runs" `Quick
            test_pipeline_retire_boundary_splits_runs;
          QCheck_alcotest.to_alcotest prop_tape_runs_match_single_cells;
          QCheck_alcotest.to_alcotest prop_fetch_matches_unfiltered_reference;
        ] );
      ( "config",
        [
          Alcotest.test_case "with_btb_entries" `Quick test_config_with_btb_entries;
          Alcotest.test_case "table II parameters" `Quick test_config_table2_parameters;
        ] );
    ]
