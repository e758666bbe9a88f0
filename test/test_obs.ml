(* Observability layer: histogram/series math, the JSON printer and
   parser, probe wiring, and — end to end — that telemetry interval deltas
   and attribution tables sum exactly to the run's final aggregates. *)

open Scd_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 0.0))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucket_index () =
  List.iter
    (fun (v, expect) ->
      check_int (Printf.sprintf "bucket_index %d" v) expect
        (Histogram.bucket_index v))
    [ (-7, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11) ]

let test_histogram_bounds_roundtrip () =
  (* Bucket i >= 1 holds exactly [2^(i-1), 2^i - 1]. *)
  for i = 1 to 20 do
    let lo, hi = Histogram.bucket_bounds i in
    check_int "lower bound" (1 lsl (i - 1)) lo;
    check_int "upper bound" ((1 lsl i) - 1) hi;
    check_int "lo maps back" i (Histogram.bucket_index lo);
    check_int "hi maps back" i (Histogram.bucket_index hi);
    if i > 1 then
      check_int "below lo maps lower" (i - 1) (Histogram.bucket_index (lo - 1))
  done;
  let lo, hi = Histogram.bucket_bounds 0 in
  check_bool "bucket 0 lower bound open" true (lo < 0);
  check_int "bucket 0 holds <= 0" 0 hi

let test_histogram_aggregates () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 100; 0 ];
  check_int "count" 5 (Histogram.count h);
  check_int "total" 106 (Histogram.total h);
  check_int "min" 0 (Histogram.min_value h);
  check_int "max" 100 (Histogram.max_value h);
  check_float "mean" (106.0 /. 5.0) (Histogram.mean h);
  check_int "rows preserve count" 5
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Histogram.rows h));
  let empty = Histogram.create () in
  check_float "empty mean" 0.0 (Histogram.mean empty);
  check_int "empty quantile" 0 (Histogram.quantile empty 0.5)

let test_histogram_overflow_clamp () =
  (* buckets = 4 -> largest regular bucket is index 3, range [4, 7]. *)
  let h = Histogram.create ~buckets:4 () in
  Histogram.add h 5;
  Histogram.add h 1_000_000;
  check_int "clamped into last bucket" 2 (Histogram.bucket_count h 3);
  check_int "overflow counted" 1 (Histogram.overflow h);
  check_int "total still exact" 1_000_005 (Histogram.total h);
  check_int "max still exact" 1_000_000 (Histogram.max_value h)

let test_histogram_quantile () =
  let h = Histogram.create () in
  (* 90 values in bucket 3 ([4,7]), 10 in bucket 7 ([64,127]). *)
  for _ = 1 to 90 do Histogram.add h 5 done;
  for _ = 1 to 10 do Histogram.add h 100 done;
  check_int "p50 in the dominant bucket" 7 (Histogram.quantile h 0.5);
  (* p99 lands in the tail bucket; its upper bound clamps to max_value. *)
  check_int "p99 clamped to max" 100 (Histogram.quantile h 0.99);
  check_int "p0 lower bucket" 7 (Histogram.quantile h 0.0)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let test_series_basics () =
  let s = Series.create ~columns:[ "a"; "b"; "c" ] in
  check_int "width" 3 (Series.width s);
  check_int "empty" 0 (Series.length s);
  for i = 1 to 100 do
    Series.append s [| float_of_int i; float_of_int (i * i); 0.5 |]
  done;
  check_int "length" 100 (Series.length s);
  check_float "get" 49.0 (Series.get s ~row:6 ~col:1);
  check_float "sum a" 5050.0 (Series.sum s ~col:0);
  check_bool "col_index" true (Series.col_index s "b" = Some 1);
  check_bool "col_index missing" true (Series.col_index s "zz" = None);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Series.append: row width does not match columns")
    (fun () -> Series.append s [| 1.0; 2.0 |])

let test_series_csv_roundtrip () =
  let s = Series.create ~columns:[ "x"; "y" ] in
  Series.append s [| 1234567.0; 0.25 |];
  Series.append s [| 0.0; 3.0 |];
  let lines = String.split_on_char '\n' (String.trim (Series.to_csv s)) in
  (match lines with
  | [ header; r0; r1 ] ->
    Alcotest.(check string) "header" "x,y" header;
    Alcotest.(check string) "integers printed exactly" "1234567,0.250000" r0;
    Alcotest.(check string) "zero row" "0,3" r1
  | _ -> Alcotest.fail "expected header + 2 rows");
  (* Parse-and-sum round trip on the integer column. *)
  let parsed =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ',' line with
        | x :: _ -> acc + int_of_float (float_of_string x)
        | [] -> acc)
      0 (List.tl lines)
  in
  check_int "csv column re-sums exactly" 1234567 parsed

(* ------------------------------------------------------------------ *)
(* Attribution                                                         *)
(* ------------------------------------------------------------------ *)

let test_attribution () =
  let a = Attribution.create ~size:4 in
  Attribution.add a ~key:1 ~cycles:10 ~instructions:5 ~mispredicts:1;
  Attribution.add a ~key:1 ~cycles:10 ~instructions:5 ~mispredicts:0;
  Attribution.add a ~key:3 ~cycles:50 ~instructions:9 ~mispredicts:2;
  check_int "total cycles" 70 (Attribution.total_cycles a);
  check_int "total instructions" 19 (Attribution.total_instructions a);
  check_int "total mispredicts" 3 (Attribution.total_mispredicts a);
  check_int "total events" 3 (Attribution.total_events a);
  (match Attribution.rows a with
  | [ top; second ] ->
    check_int "hottest key first" 3 top.Attribution.key;
    check_int "hottest cycles" 50 top.Attribution.cycles;
    check_int "second key" 1 second.Attribution.key;
    check_int "second events" 2 second.Attribution.events
  | _ -> Alcotest.fail "expected exactly two non-empty keys");
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Attribution.add: key out of range") (fun () ->
      Attribution.add a ~key:4 ~cycles:1 ~instructions:1 ~mispredicts:0)

(* ------------------------------------------------------------------ *)
(* JSON printer and parser                                            *)
(* ------------------------------------------------------------------ *)

let test_json_valid () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "rejected %S: %s" s e))
    [
      "{}"; "[]"; "null"; "true"; "-12.5e3"; "\"a\\nb\\u0041\"";
      {|{"a": [1, 2, {"b": null}], "c": "x"}|};
      {|[1.0, -0.5, 1e10, 1E-2, 0]|};
    ]

let test_json_invalid () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid %S" s)
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "{'a': 1}"; "nul"; "01"; "1. 5";
      "\"unterminated"; "\"bad \\x escape\""; "[1] trailing"; "{\"a\" 1}";
    ]

let test_json_printers () =
  let printed name expect v =
    Alcotest.(check string) name expect (Json.to_string v)
  in
  Alcotest.(check string) "escaping" "\"a\\\"b\\\\c\\n\"" (Json.string "a\"b\\c\n");
  printed "integral float" "42" (Json.Number 42.0);
  printed "non-finite becomes null" "null" (Json.Number nan);
  printed "infinity becomes null" "null" (Json.Number infinity);
  printed "shortest digits" "0.1" (Json.Number 0.1);
  printed "16 digits" "0.3333333333333333" (Json.Number (1.0 /. 3.0));
  printed "17 digits" "0.30000000000000004" (Json.Number (0.1 +. 0.2));
  printed "scalars and empty containers on one line"
    {|{"a": [], "b": {}, "c": null, "d": true}|}
    (Json.Object
       [ ("a", Json.Array []); ("b", Json.Object []); ("c", Json.Null);
         ("d", Json.Bool true) ]);
  printed "top two levels break where they nest, deeper ones do not"
    "{\n  \"h\": {\"k\": 1},\n  \"x\": [\n    {\"k\": [2]}\n  ]\n}"
    (Json.Object
       [ ("h", Json.Object [ ("k", Json.int 1) ]);
         ("x", Json.Array [ Json.Object [ ("k", Json.Array [ Json.int 2 ]) ] ]) ]);
  check_bool "escaped string parses back" true
    (Json.parse (Json.string "tab\there\x01") = Ok (Json.String "tab\there\x01"))

(* Strings draw on quotes, backslashes, control characters and bytes above
   0x7f; numbers are finite, integral or not. *)
let json_value_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:
        (oneof
           [ printable;
             oneofl
               [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x01'; '\x1f'; '\x7f';
                 '\xc3'; '\xa9' ] ])
      (int_bound 8)
  in
  let num =
    oneof
      [ map float_of_int int;
        map (fun i -> float_of_int i /. 1000.0) small_signed_int;
        map (fun f -> if Float.is_finite f then f else 0.0) float ]
  in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Number x) num; map (fun s -> Json.String s) str ]
  in
  sized
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [ (2, leaf);
               ( 1,
                 map (fun l -> Json.Array l)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map (fun l -> Json.Object l)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) ) ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:Json.to_string json_value_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* Perfbench hands add_other its metrics as %.17g text: each number must
   reach the trace as the same float. *)
let test_chrome_trace_add_other () =
  let tr = Chrome_trace.create () in
  Chrome_trace.complete tr ~name:"run" ~ts:1 ~dur:2;
  let v = 0.1 +. 0.2 in
  Chrome_trace.add_other tr ~key:"metrics"
    ~json:(Printf.sprintf {|{"m": {"value": %.17g, "unit": "s"}}|} v);
  (match Json.parse (Chrome_trace.contents tr) with
   | Error e -> Alcotest.fail ("trace rejected: " ^ e)
   | Ok doc ->
     check_int "two metadata events and the slice" 3
       (List.length
          (Option.get (Option.bind (Json.member "traceEvents" doc) Json.get_list)));
     let metric =
       Option.bind (Json.member "otherData" doc) (Json.member "metrics")
       |> Fun.flip Option.bind (Json.member "m")
     in
     check_bool "the same float" true
       (Option.bind (Option.bind metric (Json.member "value")) Json.get_number
        = Some v));
  match Chrome_trace.add_other tr ~key:"bad" ~json:"{" with
  | () -> Alcotest.fail "malformed JSON accepted"
  | exception Invalid_argument _ -> ()

let test_json_surrogates () =
  let decodes doc expect =
    match Json.parse doc with
    | Ok (Json.String s) -> Alcotest.(check string) doc expect s
    | Ok _ -> Alcotest.fail (doc ^ ": not a string")
    | Error e -> Alcotest.fail (Printf.sprintf "rejected %s: %s" doc e)
  in
  (* U+1F600 (emoji): high+low surrogate pair -> one 4-byte UTF-8 sequence *)
  decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  (* U+10000, the first supplementary code point *)
  decodes {|"\ud800\udc00"|} "\xf0\x90\x80\x80";
  (* U+10FFFF, the last one (uppercase hex digits) *)
  decodes {|"\uDBFF\uDFFF"|} "\xf4\x8f\xbf\xbf";
  (* pairs compose with surrounding text and other escapes *)
  decodes {|"a\ud83d\ude00\u0041b"|} "a\xf0\x9f\x98\x80Ab";
  (* BMP escapes are unaffected *)
  decodes {|"\u20ac"|} "\xe2\x82\xac";
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Ok _ -> Alcotest.fail ("accepted lone surrogate " ^ doc)
      | Error _ -> ())
    [
      {|"\ud83d"|} (* lone high at end of string *);
      {|"\ud83d x"|} (* high followed by a plain character *);
      {|"\ud83d\n"|} (* high followed by a non-\u escape *);
      {|"\ud83d\ud83d"|} (* high followed by another high *);
      {|"\ude00"|} (* lone low *);
    ]

let test_json_parse_accessors () =
  let doc =
    {|{"host": {"ocaml": "5.1.1", "word_size": 64},
       "micro": [{"name": "k", "minor_words_per_run": 12.5}],
       "esc": "\u0041\n"}|}
  in
  match Json.parse doc with
  | Error e -> Alcotest.fail ("parse failed: " ^ e)
  | Ok v ->
    let host = Option.get (Json.member "host" v) in
    Alcotest.(check (option string))
      "nested string" (Some "5.1.1")
      (Option.bind (Json.member "ocaml" host) Json.get_string);
    check_bool "nested number" true
      (Option.bind (Json.member "word_size" host) Json.get_number = Some 64.0);
    (match Option.bind (Json.member "micro" v) Json.get_list with
     | Some [ item ] ->
       Alcotest.(check (option string))
         "array element member" (Some "k")
         (Option.bind (Json.member "name" item) Json.get_string);
       check_bool "fractional number" true
         (Option.bind (Json.member "minor_words_per_run" item) Json.get_number
          = Some 12.5)
     | _ -> Alcotest.fail "micro should be a one-element array");
    Alcotest.(check (option string))
      "\\uXXXX escape decodes" (Some "A\n")
      (Option.bind (Json.member "esc" v) Json.get_string);
    check_bool "missing member" true (Json.member "nope" v = None);
    check_bool "member on non-object" true
      (Json.member "x" (Json.String "s") = None);
    check_bool "get_string on number" true (Json.get_string (Json.Number 1.0) = None)

let test_json_parse_roundtrips_own_emitters () =
  (* Documents printed by to_string must come back intact. *)
  let doc =
    Json.to_string
      (Json.Object
         [ ("s", Json.String "tab\there \x01 quote\""); ("n", Json.Number 2.5);
           ("i", Json.int (-7)) ])
  in
  match Json.parse doc with
  | Error e -> Alcotest.fail ("emitted JSON rejected: " ^ e)
  | Ok v ->
    Alcotest.(check (option string))
      "escaped string round-trips" (Some "tab\there \x01 quote\"")
      (Option.bind (Json.member "s" v) Json.get_string);
    check_bool "float round-trips" true
      (Option.bind (Json.member "n" v) Json.get_number = Some 2.5);
    check_bool "int round-trips" true
      (Option.bind (Json.member "i" v) Json.get_number = Some (-7.0))

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

let test_probe_null () =
  check_bool "null is null" true (Probe.is_null Probe.null);
  check_bool "create is live" false (Probe.is_null (Probe.create ()));
  (* The disabled-path check in the pipeline is physical equality. *)
  check_bool "physical identity" true (Probe.null == Probe.null)

let test_probe_callbacks () =
  let retired = ref 0 and mis = ref 0 in
  let p =
    Probe.create
      ~on_retire:(fun () -> incr retired)
      ~on_mispredict:(fun ~dispatch -> if dispatch then incr mis)
      ()
  in
  p.Probe.on_retire ();
  p.Probe.on_retire ();
  p.Probe.on_mispredict ~dispatch:true;
  p.Probe.on_mispredict ~dispatch:false;
  check_int "retire count" 2 !retired;
  check_int "dispatch mispredicts only" 1 !mis

(* ------------------------------------------------------------------ *)
(* Stats hardening: zero-run derived ratios                            *)
(* ------------------------------------------------------------------ *)

let test_stats_zero_run () =
  let open Scd_uarch in
  let s = Stats.create () in
  List.iter
    (fun (name, v) ->
      check_bool (name ^ " is finite") true (Float.is_finite v);
      check_float name 0.0 v)
    [
      ("cpi", Stats.cpi s); ("ipc", Stats.ipc s);
      ("dispatch_fraction", Stats.dispatch_fraction s);
      ("bop_hit_rate", Stats.bop_hit_rate s);
      ("branch_mpki", Stats.branch_mpki s);
      ("dispatch_mpki", Stats.dispatch_mpki s);
      ("icache_mpki", Stats.icache_mpki s);
      ("dcache_mpki", Stats.dcache_mpki s);
    ]

let test_stats_copy_is_independent () =
  let open Scd_uarch in
  let s = Stats.create () in
  s.Stats.instructions <- 7;
  let snap = Stats.copy s in
  s.Stats.instructions <- 50;
  check_int "snapshot unaffected" 7 snap.Stats.instructions;
  check_int "original advanced" 50 s.Stats.instructions

(* ------------------------------------------------------------------ *)
(* BTB JTE live-count accounting                                       *)
(* ------------------------------------------------------------------ *)

let test_btb_jte_population_and_evictions () =
  let open Scd_uarch in
  (* Fully associative, 4 entries: one set, so JTE inserts beyond capacity
     must displace resident JTEs. *)
  let b = Btb.create ~entries:4 ~ways:4 ~replacement:Btb.Lru () in
  for op = 0 to 3 do
    Btb.insert b ~jte:true ~key:(op lsl 2) ~target:(1000 + op)
  done;
  check_int "population at capacity" 4 (Btb.jte_population b);
  check_int "no evictions while filling" 0 (Btb.stats b).Btb.jte_evictions;
  Btb.insert b ~jte:true ~key:(9 lsl 2) ~target:2000;
  check_int "population capped by storage" 4 (Btb.jte_population b);
  check_int "displacement counted as eviction" 1
    (Btb.stats b).Btb.jte_evictions;
  (* Re-inserting a resident key updates in place: no eviction. *)
  Btb.insert b ~jte:true ~key:(9 lsl 2) ~target:2001;
  check_int "update in place" 1 (Btb.stats b).Btb.jte_evictions;
  check_int "population stable on update" 4 (Btb.jte_population b)

let test_btb_jte_flush_accounting () =
  let open Scd_uarch in
  let b = Btb.create ~entries:8 ~ways:4 ~replacement:Btb.Round_robin () in
  for op = 0 to 5 do
    Btb.insert b ~jte:true ~key:(op lsl 2) ~target:op
  done;
  Btb.insert b ~jte:false ~key:(100 lsl 2) ~target:7;
  let pop = Btb.jte_population b in
  check_bool "some JTEs resident" true (pop > 0);
  let evictions_before = (Btb.stats b).Btb.jte_evictions in
  Btb.flush_jtes b;
  check_int "flush empties the live count" 0 (Btb.jte_population b);
  check_int "flush is not an eviction" evictions_before
    (Btb.stats b).Btb.jte_evictions;
  check_bool "branch entry survives the flush" true
    (Btb.probe_target b ~jte:false ~key:(100 lsl 2) <> Btb.no_target);
  (* The overlay refills from scratch after a flush. *)
  Btb.insert b ~jte:true ~key:(0 lsl 2) ~target:0;
  check_int "refills after flush" 1 (Btb.jte_population b)

(* ------------------------------------------------------------------ *)
(* Telemetry: interval deltas sum exactly to run aggregates            *)
(* ------------------------------------------------------------------ *)

let fib_script =
  {|
    function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    local t = {}
    for i = 1, 20 do t[i] = fib(10) + i end
    local s = 0
    for i = 1, 20 do s = s + t[i] end
    print(s)
  |}

let run_with_telemetry ?context_switch_interval ?(vm = "lua") scheme =
  let telemetry = Scd_cosim.Telemetry.create ~interval:500 () in
  let r =
    Scd_cosim.Driver.run ~telemetry
      { Scd_cosim.Driver.default_config with
        frontend = Scd_cosim.Frontend.get vm; scheme; context_switch_interval }
      ~source:fib_script
  in
  (telemetry, r)

let col_sum tel name =
  let open Scd_cosim in
  let s = Telemetry.series tel in
  match Scd_obs.Series.col_index s name with
  | None -> Alcotest.fail ("missing telemetry column " ^ name)
  | Some col -> int_of_float (Scd_obs.Series.sum s ~col)

let check_deltas_sum_to_aggregates scheme =
  let open Scd_cosim in
  let tel, r = run_with_telemetry scheme in
  let s = r.Driver.stats in
  let label n = Printf.sprintf "%s: %s" (Scd_core.Scheme.name scheme) n in
  check_int (label "d_instructions sums to total")
    s.Scd_uarch.Stats.instructions
    (col_sum tel "d_instructions");
  check_int (label "d_cycles sums to total") s.Scd_uarch.Stats.cycles
    (col_sum tel "d_cycles");
  check_int (label "d_dispatch_instructions sums to total")
    s.Scd_uarch.Stats.dispatch_instructions
    (col_sum tel "d_dispatch_instructions");
  check_int (label "d_mispredicts sums to total")
    (Scd_uarch.Stats.total_mispredicts s)
    (col_sum tel "d_mispredicts");
  check_int (label "d_dispatch_mispredicts sums to total")
    s.Scd_uarch.Stats.mispredicts_dispatch
    (col_sum tel "d_dispatch_mispredicts");
  check_int (label "d_bop_lookups sums to total")
    s.Scd_uarch.Stats.bop_count
    (col_sum tel "d_bop_lookups");
  check_int (label "d_bop_hits sums to total") s.Scd_uarch.Stats.bop_hits
    (col_sum tel "d_bop_hits");
  check_int (label "d_icache_misses sums to total")
    s.Scd_uarch.Stats.icache_misses
    (col_sum tel "d_icache_misses");
  check_int (label "d_dcache_misses sums to total")
    s.Scd_uarch.Stats.dcache_misses
    (col_sum tel "d_dcache_misses");
  check_int (label "d_jte_inserts sums to total")
    r.Driver.btb.Scd_uarch.Btb.jte_inserts
    (col_sum tel "d_jte_inserts");
  check_int (label "d_jte_evictions sums to total")
    r.Driver.btb.Scd_uarch.Btb.jte_evictions
    (col_sum tel "d_jte_evictions");
  (* The cumulative columns end at the aggregates. *)
  let series = Telemetry.series tel in
  let rows = Scd_obs.Series.length series in
  check_bool (label "sampled at least two intervals") true (rows >= 2);
  check_int (label "last cumulative instruction count")
    s.Scd_uarch.Stats.instructions
    (int_of_float (Scd_obs.Series.get series ~row:(rows - 1) ~col:0));
  check_int (label "last cumulative cycle count") s.Scd_uarch.Stats.cycles
    (int_of_float (Scd_obs.Series.get series ~row:(rows - 1) ~col:1))

let test_telemetry_deltas_scd () = check_deltas_sum_to_aggregates Scd_core.Scheme.Scd
let test_telemetry_deltas_baseline () =
  check_deltas_sum_to_aggregates Scd_core.Scheme.Baseline

let test_telemetry_attribution_totals () =
  let open Scd_cosim in
  List.iter
    (fun scheme ->
      let tel, r = run_with_telemetry scheme in
      let s = r.Driver.stats in
      let label n = Printf.sprintf "%s: %s" (Scd_core.Scheme.name scheme) n in
      List.iter
        (fun (which, attr) ->
          check_int
            (label (which ^ " attribution covers every bytecode"))
            r.Driver.bytecodes
            (Scd_obs.Attribution.total_events attr);
          check_int
            (label (which ^ " attributed cycles sum to run cycles"))
            s.Scd_uarch.Stats.cycles
            (Scd_obs.Attribution.total_cycles attr);
          check_int
            (label (which ^ " attributed instructions sum to run total"))
            s.Scd_uarch.Stats.instructions
            (Scd_obs.Attribution.total_instructions attr);
          check_int
            (label (which ^ " attributed mispredicts sum to run total"))
            (Scd_uarch.Stats.total_mispredicts s)
            (Scd_obs.Attribution.total_mispredicts attr))
        [ ("site", Telemetry.site_attr tel);
          ("opcode", Telemetry.opcode_attr tel) ];
      let h = Telemetry.cycles_per_bytecode tel in
      check_int
        (label "cycles-per-bytecode histogram counts every bytecode")
        r.Driver.bytecodes (Scd_obs.Histogram.count h);
      check_int
        (label "cycles-per-bytecode histogram total is the run's cycles")
        s.Scd_uarch.Stats.cycles (Scd_obs.Histogram.total h))
    [ Scd_core.Scheme.Scd; Scd_core.Scheme.Baseline ]

let test_telemetry_stack_vm_sites () =
  (* The stack VM has three replicated dispatch sites; the register VM only
     the common one. Attribution should see the difference. *)
  let open Scd_cosim in
  let tel_js, _ = run_with_telemetry ~vm:"js" Scd_core.Scheme.Scd in
  let tel_lua, _ = run_with_telemetry ~vm:"lua" Scd_core.Scheme.Scd in
  let sites tel =
    List.map
      (fun r -> r.Scd_obs.Attribution.key)
      (Scd_obs.Attribution.rows (Telemetry.site_attr tel))
    |> List.sort compare
  in
  check_bool "stack VM exercises call/branch sites" true
    (List.length (sites tel_js) > 1);
  check_bool "register VM uses the common site" true (sites tel_lua = [ 0 ])

let test_telemetry_chrome_trace_validates () =
  let open Scd_cosim in
  List.iter
    (fun scheme ->
      let tel, _ = run_with_telemetry ?context_switch_interval:(Some 20_000) scheme in
      let json = Telemetry.to_chrome_trace tel in
      (match Scd_obs.Json.parse json with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail
          (Printf.sprintf "%s trace JSON invalid: %s"
             (Scd_core.Scheme.name scheme) e));
      check_bool "has traceEvents" true
        (contains ~needle:"\"traceEvents\"" json))
    [ Scd_core.Scheme.Scd; Scd_core.Scheme.Baseline ]

let test_telemetry_csv_roundtrip () =
  let open Scd_cosim in
  let tel, r = run_with_telemetry Scd_core.Scheme.Scd in
  let csv = Telemetry.to_csv tel in
  let lines = String.split_on_char '\n' (String.trim csv) in
  let header = List.hd lines in
  Alcotest.(check string)
    "csv header is the documented schema"
    (String.concat "," Telemetry.columns)
    header;
  (* Re-sum the d_cycles column from the CSV text itself. *)
  let cols = String.split_on_char ',' header in
  let idx = ref (-1) in
  List.iteri (fun i c -> if c = "d_cycles" then idx := i) cols;
  check_bool "d_cycles column present" true (!idx >= 0);
  let total =
    List.fold_left
      (fun acc line ->
        let cells = String.split_on_char ',' line in
        acc + int_of_float (float_of_string (List.nth cells !idx)))
      0 (List.tl lines)
  in
  check_int "CSV re-sums to the run's cycles" r.Driver.stats.Scd_uarch.Stats.cycles
    total

let test_telemetry_reattach_rejected () =
  let open Scd_cosim in
  let tel, _ = run_with_telemetry Scd_core.Scheme.Baseline in
  Alcotest.check_raises "one run per telemetry value"
    (Invalid_argument "Telemetry.attach: already attached to a run") (fun () ->
      ignore
        (Driver.run ~telemetry:tel Driver.default_config ~source:fib_script))

(* ------------------------------------------------------------------ *)
(* Prof: host-runtime profiler                                         *)
(* ------------------------------------------------------------------ *)

(* Every test deactivates via Fun.protect so a failure cannot leak an
   active profile into later tests (spans are process-global). *)
let with_profile ?max_events f =
  let p = Prof.create ?max_events () in
  Prof.activate p;
  Fun.protect ~finally:Prof.deactivate (fun () -> f p);
  p

let test_prof_nesting_and_delta_sum () =
  let p =
    with_profile (fun _ ->
        for _ = 1 to 3 do
          Prof.span "a" (fun () ->
              Prof.span "b" (fun () ->
                  ignore (Sys.opaque_identity (Array.make 100 0))))
        done)
  in
  let a : Prof.span = Option.get (Prof.find p "a") in
  let b : Prof.span = Option.get (Prof.find p "a/b") in
  check_int "parent depth" 0 a.depth;
  check_int "child depth" 1 b.depth;
  check_int "parent calls" 3 a.calls;
  check_int "child calls" 3 b.calls;
  Alcotest.(check string) "leaf name" "b" b.name;
  check_bool "child allocated its arrays" true (b.gc.minor_words >= 300.0);
  (* delta-sum identity: a child's totals are contained in its parent's *)
  check_bool "child wall <= parent wall" true (b.wall_ns <= a.wall_ns);
  check_bool "child minor words <= parent's" true
    (b.gc.minor_words <= a.gc.minor_words);
  check_bool "child latency samples" true (Histogram.count b.latency = 3);
  (* tree readers *)
  (match Prof.roots p with
   | [ r ] -> check_bool "single root is a" true (r == a)
   | _ -> Alcotest.fail "expected exactly one root");
  (match Prof.children p a with
   | [ c ] -> check_bool "a's only child is b" true (c == b)
   | _ -> Alcotest.fail "expected exactly one child");
  let aw, am = Prof.attributed p a in
  check_int "attributed wall is b's" b.wall_ns aw;
  check_float "attributed minor words are b's" b.gc.minor_words am;
  (* completion order: children complete before their parents *)
  (match Prof.spans p with
   | [ first; second ] ->
     check_bool "b completed first" true (first == b && second == a)
   | _ -> Alcotest.fail "expected exactly two spans")

let test_prof_exception_unwind () =
  let p =
    with_profile (fun _ ->
        (try
           Prof.span "outer" (fun () ->
               Prof.span "inner" (fun () -> raise Exit))
         with Exit -> ());
        Prof.span "after" ignore)
  in
  let outer : Prof.span = Option.get (Prof.find p "outer") in
  let inner : Prof.span = Option.get (Prof.find p "outer/inner") in
  check_int "outer recorded despite raise" 1 outer.calls;
  check_int "inner recorded despite raise" 1 inner.calls;
  (* the stack unwound fully: the next span is a fresh root *)
  let after : Prof.span = Option.get (Prof.find p "after") in
  check_int "stack unwound to the root" 0 after.depth

let test_prof_disabled_is_allocation_free () =
  check_bool "no profile active" false (Prof.enabled ());
  let noop = fun () -> () in
  (* warm-up, then measure: the disabled path must not allocate *)
  for _ = 1 to 100 do
    Prof.span "x" noop
  done;
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Prof.span "x" noop
  done;
  let delta = Gc.minor_words () -. m0 in
  check_bool
    (Printf.sprintf "10k disabled spans allocate nothing (delta %.0f words)"
       delta)
    true (delta < 256.0);
  (* the disabled leaf path hands out one shared token *)
  let l0 = Prof.leaf_begin () in
  let m0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Prof.leaf_end (Prof.leaf_begin ()) "x"
  done;
  let delta = Gc.minor_words () -. m0 in
  check_bool
    (Printf.sprintf "10k disabled leaves allocate nothing (delta %.0f words)"
       delta)
    true (delta < 256.0);
  check_bool "shared disabled token" true (l0 == Prof.leaf_begin ())

let test_prof_leaf_names_at_end () =
  let p =
    with_profile (fun _ ->
        let l = Prof.leaf_begin () in
        ignore (Sys.opaque_identity (Array.make 50 0));
        Prof.leaf_end l "hit";
        Prof.span "s" (fun () -> Prof.leaf_end (Prof.leaf_begin ()) "hit"))
  in
  let root_hit : Prof.span = Option.get (Prof.find p "hit") in
  check_int "root leaf depth" 0 root_hit.depth;
  check_int "root leaf calls" 1 root_hit.calls;
  check_bool "leaf saw the allocation" true (root_hit.gc.minor_words >= 50.0);
  let nested : Prof.span = Option.get (Prof.find p "s/hit") in
  check_int "leaf nests under the open span" 1 nested.depth

let test_prof_activate_conflict () =
  let p = Prof.create () and q = Prof.create () in
  Prof.activate p;
  Fun.protect ~finally:Prof.deactivate (fun () ->
      Prof.activate p;  (* same profile: idempotent *)
      check_bool "still enabled" true (Prof.enabled ());
      Alcotest.check_raises "a second profile is rejected"
        (Invalid_argument "Prof.activate: another profile is active")
        (fun () -> Prof.activate q));
  check_bool "deactivated" false (Prof.enabled ())

let test_prof_event_cap () =
  let p =
    with_profile ~max_events:2 (fun _ ->
        for _ = 1 to 5 do
          Prof.span "e" ignore
        done)
  in
  let n = ref 0 in
  Prof.iter_events p (fun _ -> incr n);
  check_int "events capped" 2 !n;
  check_int "overflow counted" 3 (Prof.dropped_events p);
  let e : Prof.span = Option.get (Prof.find p "e") in
  check_int "aggregation is unbounded" 5 e.calls

let test_prof_driver_phase_coverage () =
  (* The acceptance check behind `scdsim prof`: the driver's named phase
     spans must claim >=95% of a co-simulated run's minor words (allocation
     is deterministic, unlike wall time, so the bound cannot flake). *)
  let p =
    with_profile (fun _ ->
        ignore
          (Prof.span "run" (fun () ->
               Scd_cosim.Driver.run Scd_cosim.Driver.default_config
                 ~source:fib_script)
            : Scd_cosim.Driver.result))
  in
  let root : Prof.span = Option.get (Prof.find p "run") in
  List.iter
    (fun phase ->
      check_bool (phase ^ " phase recorded") true
        (Prof.find p ("run/" ^ phase) <> None))
    [ "setup"; "compile"; "layout"; "execute"; "snapshot" ];
  check_bool "the run allocated substantially" true
    (root.gc.minor_words > 10_000.0);
  let aw, am = Prof.attributed p root in
  check_bool "attributed wall <= root wall" true (aw <= root.wall_ns);
  check_bool "attributed minor words <= root's" true
    (am <= root.gc.minor_words);
  check_bool
    (Printf.sprintf ">=95%% of minor words attributed (%.1f%%)"
       (100.0 *. am /. root.gc.minor_words))
    true
    (am >= 0.95 *. root.gc.minor_words)

let test_prof_sweep_cache_tiers () =
  Scd_experiments.Sweep.clear ();
  let w = Option.get (Scd_workloads.Registry.find "fibo") in
  let run () =
    ignore
      (Scd_experiments.Sweep.get
         (Scd_experiments.Sweep.cell ~scale:Scd_workloads.Workload.Test "lua"
            Scd_core.Scheme.Baseline w)
        : Scd_cosim.Driver.result)
  in
  let p =
    with_profile (fun _ ->
        run ();  (* cold: compute *)
        run ())  (* warm: memory hit *)
  in
  let compute : Prof.span = Option.get (Prof.find p "sweep-compute") in
  check_int "one cell computed" 1 compute.calls;
  let hit : Prof.span = Option.get (Prof.find p "sweep-hit-memory") in
  check_int "one memory hit" 1 hit.calls;
  check_bool "no store attached, so no disk tier" true
    (Prof.find p "sweep-hit-disk" = None);
  (* driver phases nest under the compute span *)
  check_bool "phases nest under sweep-compute" true
    (Prof.find p "sweep-compute/execute" <> None)

(* ------------------------------------------------------------------ *)
(* Budget: allocation-budget comparator                                *)
(* ------------------------------------------------------------------ *)

(* Injectable table so the tests don't depend on the checked-in numbers. *)
let test_budgets =
  [ { Budget.name = "hot-kernel"; minor_words_per_run = 6000.0 };
    { Budget.name = "zero-kernel"; minor_words_per_run = 0.0 } ]

let statuses measured =
  List.map
    (fun (v : Budget.verdict) -> (v.entry.Budget.name, v.status))
    (Budget.check_measured ~budgets:test_budgets measured)

let test_budget_pass_fail () =
  check_bool "at the budget passes" true
    (statuses [ ("hot-kernel", 6000.0); ("zero-kernel", 0.0) ]
     = [ ("hot-kernel", Budget.Pass); ("zero-kernel", Budget.Pass) ]);
  check_bool "one word over fails" true
    (List.assoc "hot-kernel" (statuses [ ("hot-kernel", 6001.0); ("zero-kernel", 0.0) ])
     = Budget.Fail);
  check_bool "a zero budget allows no word" true
    (List.assoc "zero-kernel" (statuses [ ("hot-kernel", 0.0); ("zero-kernel", 1.0) ])
     = Budget.Fail);
  check_bool "ok requires every pass" false
    (Budget.ok
       (Budget.check_measured ~budgets:test_budgets
          [ ("hot-kernel", 6001.0); ("zero-kernel", 0.0) ]))

let test_budget_missing_micro_fails () =
  let vs = Budget.check_measured ~budgets:test_budgets [ ("hot-kernel", 1.0) ] in
  check_bool "absent micro is Missing" true
    (List.assoc "zero-kernel" (List.map (fun (v : Budget.verdict) -> (v.entry.Budget.name, v.status)) vs)
     = Budget.Missing);
  check_bool "Missing fails the gate" false (Budget.ok vs)

let test_budget_checked_in_table () =
  (* the real table: names unique, ceilings non-negative, find agrees *)
  let names = List.map (fun (e : Budget.entry) -> e.Budget.name) Budget.table in
  check_int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (e : Budget.entry) ->
      check_bool (e.Budget.name ^ " ceiling non-negative") true
        (e.minor_words_per_run >= 0.0);
      check_bool (e.Budget.name ^ " findable") true
        (Budget.find e.Budget.name = Some e))
    Budget.table;
  check_bool "unknown name" true (Budget.find "no-such-kernel" = None);
  (* the per-scheme cosim micros the bench suite emits are all budgeted *)
  List.iter
    (fun scheme ->
      let n = "cosim-fib10-" ^ scheme in
      check_bool (n ^ " budgeted") true (Budget.find n <> None))
    [ "baseline"; "jte"; "vbbi"; "scd" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "scd_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket index" `Quick test_histogram_bucket_index;
          Alcotest.test_case "bounds roundtrip" `Quick
            test_histogram_bounds_roundtrip;
          Alcotest.test_case "aggregates" `Quick test_histogram_aggregates;
          Alcotest.test_case "overflow clamp" `Quick
            test_histogram_overflow_clamp;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile;
        ] );
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "csv roundtrip" `Quick test_series_csv_roundtrip;
        ] );
      ( "attribution",
        [ Alcotest.test_case "totals and rows" `Quick test_attribution ] );
      ( "json",
        [
          Alcotest.test_case "valid documents" `Quick test_json_valid;
          Alcotest.test_case "invalid documents" `Quick test_json_invalid;
          Alcotest.test_case "printers" `Quick test_json_printers;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates;
          Alcotest.test_case "parse accessors" `Quick test_json_parse_accessors;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "chrome trace add_other" `Quick
            test_chrome_trace_add_other;
          Alcotest.test_case "parse roundtrips emitters" `Quick
            test_json_parse_roundtrips_own_emitters;
        ] );
      ( "prof",
        [
          Alcotest.test_case "nesting and delta sums" `Quick
            test_prof_nesting_and_delta_sum;
          Alcotest.test_case "exception unwind" `Quick
            test_prof_exception_unwind;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_prof_disabled_is_allocation_free;
          Alcotest.test_case "leaf probes" `Quick test_prof_leaf_names_at_end;
          Alcotest.test_case "activate conflict" `Quick
            test_prof_activate_conflict;
          Alcotest.test_case "event cap" `Quick test_prof_event_cap;
          Alcotest.test_case "driver phase coverage" `Quick
            test_prof_driver_phase_coverage;
          Alcotest.test_case "sweep cache tiers" `Quick
            test_prof_sweep_cache_tiers;
        ] );
      ( "budget",
        [
          Alcotest.test_case "pass and fail" `Quick test_budget_pass_fail;
          Alcotest.test_case "missing micro fails" `Quick
            test_budget_missing_micro_fails;
          Alcotest.test_case "checked-in table" `Quick
            test_budget_checked_in_table;
        ] );
      ( "probe",
        [
          Alcotest.test_case "null sentinel" `Quick test_probe_null;
          Alcotest.test_case "callbacks" `Quick test_probe_callbacks;
        ] );
      ( "stats",
        [
          Alcotest.test_case "zero-run ratios" `Quick test_stats_zero_run;
          Alcotest.test_case "copy independence" `Quick
            test_stats_copy_is_independent;
        ] );
      ( "btb-jte",
        [
          Alcotest.test_case "population and evictions" `Quick
            test_btb_jte_population_and_evictions;
          Alcotest.test_case "flush accounting" `Quick
            test_btb_jte_flush_accounting;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "deltas sum (scd)" `Quick
            test_telemetry_deltas_scd;
          Alcotest.test_case "deltas sum (baseline)" `Quick
            test_telemetry_deltas_baseline;
          Alcotest.test_case "attribution totals" `Quick
            test_telemetry_attribution_totals;
          Alcotest.test_case "stack vs register sites" `Quick
            test_telemetry_stack_vm_sites;
          Alcotest.test_case "chrome trace validates" `Quick
            test_telemetry_chrome_trace_validates;
          Alcotest.test_case "csv roundtrip" `Quick
            test_telemetry_csv_roundtrip;
          Alcotest.test_case "reattach rejected" `Quick
            test_telemetry_reattach_rejected;
        ] );
    ]
