open Json

(* Both lists newest first. *)
type t = {
  mutable events : value list;
  mutable other : (string * value) list;
}

let event t fields = t.events <- Object fields :: t.events

let metadata t ~name ~arg =
  event t
    [ ("name", String name); ("ph", String "M"); ("pid", int 0); ("tid", int 0);
      ("args", Object [ ("name", String arg) ]) ]

let create ?(process_name = "scdsim") () =
  let t = { events = []; other = [] } in
  metadata t ~name:"process_name" ~arg:process_name;
  metadata t ~name:"thread_name" ~arg:"co-simulated core";
  t

let counter t ~name ~ts args =
  event t
    [ ("name", String name); ("ph", String "C"); ("ts", int ts); ("pid", int 0);
      ("tid", int 0);
      ("args", Object (List.map (fun (k, v) -> (k, Number v)) args)) ]

let instant t ~name ~ts =
  event t
    [ ("name", String name); ("ph", String "i"); ("ts", int ts); ("pid", int 0);
      ("tid", int 0); ("s", String "g") ]

let complete t ~name ~ts ~dur =
  event t
    [ ("name", String name); ("ph", String "X"); ("ts", int ts);
      ("dur", int dur); ("pid", int 0); ("tid", int 0) ]

let add_other_value t ~key v = t.other <- (key, v) :: t.other

let add_other t ~key ~json =
  match parse json with
  | Ok v -> add_other_value t ~key v
  | Error m -> invalid_arg ("Chrome_trace.add_other: " ^ m)

let contents t =
  to_string
    (Object
       [ ("traceEvents", Array (List.rev t.events));
         ("displayTimeUnit", String "ms");
         ("otherData", Object (List.rev t.other)) ])
  ^ "\n"
