open Scd_util

type gc_deltas = {
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
}

let gc_zero () =
  { minor_words = 0.0; promoted_words = 0.0; major_words = 0.0;
    minor_collections = 0; major_collections = 0; compactions = 0 }

type span = {
  path : string;
  name : string;
  depth : int;
  mutable calls : int;
  mutable wall_ns : int;
  gc : gc_deltas;
  latency : Histogram.t;  (* per-call wall microseconds, log2 buckets *)
}

type event = {
  ev_path : string;
  ev_depth : int;
  ev_start_ns : int;  (* relative to the profile's creation *)
  ev_dur_ns : int;
}

type t = {
  t0_ns : int;
  mutex : Mutex.t;
  by_path : (string, span) Hashtbl.t;
  order : span Vec.t;  (* completion order of first calls *)
  events : event Vec.t;
  max_events : int;
  mutable dropped : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(max_events = 65_536) () =
  {
    t0_ns = now_ns ();
    mutex = Mutex.create ();
    by_path = Hashtbl.create 16;
    order = Vec.create ();
    events = Vec.create ();
    max_events;
    dropped = 0;
  }

(* The active profile. [span] reads this ref on every call; when it is
   [None] the instrumented path is one load-and-match with no allocation,
   which is what the prof-span-off-1k microbenchmark and the zero-alloc
   test in test_obs pin down. Activation happens-before pool fan-out in
   every caller, so worker domains observe it. *)
let active_profile : t option ref = ref None

let activate t =
  match !active_profile with
  | Some p when p != t -> invalid_arg "Prof.activate: another profile is active"
  | _ -> active_profile := Some t

let deactivate () = active_profile := None
let active () = !active_profile
let enabled () = match !active_profile with None -> false | Some _ -> true

(* Per-domain span stack: pool workers nest independently; their spans all
   merge (under the profile's mutex) into the same aggregate table.

   Minor words are sampled with [Gc.minor_words] (unboxed, noalloc), not
   from the [Gc.quick_stat] record: on OCaml 5.x the stat record's word
   counters only advance at minor collections, so a short span would read
   a zero delta and its allocation would be misattributed to whichever
   span contains the next collection. [quick_stat] still supplies the
   promoted/major words and the collection/compaction counts, which are
   by nature updated at collections. *)
type frame = {
  f_path : string;
  f_depth : int;
  f_t0 : int;
  f_gc0 : Gc.stat;
  f_mw0 : float;  (* Gc.minor_words at entry *)
}

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let find_span t ~path ~name ~depth =
  match Hashtbl.find_opt t.by_path path with
  | Some s -> s
  | None ->
    let s =
      { path; name; depth; calls = 0; wall_ns = 0; gc = gc_zero ();
        latency = Histogram.create () }
    in
    Hashtbl.add t.by_path path s;
    ignore (Vec.push t.order s : int);
    s

let record t ~path ~name ~depth ~t0 ~(gc0 : Gc.stat) ~mw0 ~t1 ~(gc1 : Gc.stat)
    ~mw1 =
  Mutex.protect t.mutex (fun () ->
      let s = find_span t ~path ~name ~depth in
      let dur = t1 - t0 in
      s.calls <- s.calls + 1;
      s.wall_ns <- s.wall_ns + dur;
      Histogram.add s.latency (dur / 1000);
      s.gc.minor_words <- s.gc.minor_words +. (mw1 -. mw0);
      s.gc.promoted_words <-
        s.gc.promoted_words +. (gc1.promoted_words -. gc0.promoted_words);
      s.gc.major_words <- s.gc.major_words +. (gc1.major_words -. gc0.major_words);
      s.gc.minor_collections <-
        s.gc.minor_collections + (gc1.minor_collections - gc0.minor_collections);
      s.gc.major_collections <-
        s.gc.major_collections + (gc1.major_collections - gc0.major_collections);
      s.gc.compactions <- s.gc.compactions + (gc1.compactions - gc0.compactions);
      if Vec.length t.events < t.max_events then
        ignore
          (Vec.push t.events
             { ev_path = path; ev_depth = depth;
               ev_start_ns = t0 - t.t0_ns; ev_dur_ns = dur }
            : int)
      else t.dropped <- t.dropped + 1)

let path_under stack name =
  match stack with
  | [] -> (name, 0)
  | fr :: _ -> (fr.f_path ^ "/" ^ name, fr.f_depth + 1)

let span_enabled t name f =
  let stack = Domain.DLS.get stack_key in
  let path, depth = path_under !stack name in
  (* GC counters before the clock on entry, clock before the counters on
     exit: the cost of sampling the counters stays outside the span's wall
     time (it still lands in the parent's, as it must for the delta-sum
     identity to hold). [Gc.minor_words] last before / first after the
     clock, so the quick_stat record allocation lands outside the span's
     own minor-words delta too. *)
  let gc0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let t0 = now_ns () in
  let fr = { f_path = path; f_depth = depth; f_t0 = t0; f_gc0 = gc0; f_mw0 = mw0 } in
  stack := fr :: !stack;
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      let mw1 = Gc.minor_words () in
      let gc1 = Gc.quick_stat () in
      (* Unwind to (and past) our own frame even if an inner span was
         abandoned by an exception that skipped its [finally]. *)
      let rec pop = function
        | top :: rest -> if top == fr then rest else pop rest
        | [] -> []
      in
      stack := pop !stack;
      record t ~path ~name ~depth ~t0 ~gc0 ~mw0 ~t1 ~gc1 ~mw1)
    f

let span name f =
  match !active_profile with None -> f () | Some t -> span_enabled t name f

(* ------------------------------------------------------------------ *)
(* Leaf probes: the name is chosen when the measurement ends, so a
   cache-lookup site can label the same timed region "hit-memory" or
   "hit-disk" depending on the outcome. Leaves never join the span stack
   (they cannot have children).                                        *)
(* ------------------------------------------------------------------ *)

type leaf = { l_t0 : int; l_gc0 : Gc.stat; l_mw0 : float }

(* The shared token handed out while disabled: [leaf_begin] allocates
   nothing on the disabled path. *)
let leaf_disabled = { l_t0 = min_int; l_gc0 = Gc.quick_stat (); l_mw0 = 0.0 }

let leaf_begin () =
  match !active_profile with
  | None -> leaf_disabled
  | Some _ ->
    let gc0 = Gc.quick_stat () in
    let mw0 = Gc.minor_words () in
    { l_t0 = now_ns (); l_gc0 = gc0; l_mw0 = mw0 }

let leaf_end l name =
  if l != leaf_disabled then
    match !active_profile with
    | None -> ()
    | Some t ->
      let t1 = now_ns () in
      let mw1 = Gc.minor_words () in
      let gc1 = Gc.quick_stat () in
      let stack = Domain.DLS.get stack_key in
      let path, depth = path_under !stack name in
      record t ~path ~name ~depth ~t0:l.l_t0 ~gc0:l.l_gc0 ~mw0:l.l_mw0 ~t1
        ~gc1 ~mw1

(* ------------------------------------------------------------------ *)
(* Reading results (after [deactivate])                                *)
(* ------------------------------------------------------------------ *)

let spans t =
  let acc = ref [] in
  Vec.iter (fun s -> acc := s :: !acc) t.order;
  List.rev !acc

let find t path = Hashtbl.find_opt t.by_path path

let iter_events t f = Vec.iter f t.events
let dropped_events t = t.dropped

let roots t = List.filter (fun s -> s.depth = 0) (spans t)

let children t parent =
  let prefix = parent.path ^ "/" in
  List.filter
    (fun s -> s.depth = parent.depth + 1 && String.starts_with ~prefix s.path)
    (spans t)

(* Wall time and minor words of [parent]'s direct children: the basis for
   the "attributed >= 95%" coverage check and the explicit unattributed
   remainder in the prof table. *)
let attributed t parent =
  List.fold_left
    (fun (w, m) c -> (w + c.wall_ns, m +. c.gc.minor_words))
    (0, 0.0) (children t parent)

let host () =
  Json.Object
    [ ("ocaml", Json.String Sys.ocaml_version);
      ("word_size", Json.int Sys.word_size);
      ("os_type", Json.String Sys.os_type);
      ("recommended_domains", Json.int (Pool.default_jobs ())) ]
