let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let string s = "\"" ^ escape s ^ "\""

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

let int n = Number (float_of_int n)

(* The shortest of 15, 16 and 17 significant digits that reads back as
   [v]; 17 always does. *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s
    else
      let s = Printf.sprintf "%.16g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* A container at depth 0 or 1 that holds a non-empty container puts one
   item per line, so reports and traces diff line by line; every other
   container prints on one line. *)
let to_string v =
  let b = Buffer.create 1024 in
  let nested = function Array (_ :: _) | Object (_ :: _) -> true | _ -> false in
  let rec value depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Number x -> Buffer.add_string b (number x)
    | String s -> Buffer.add_string b (string s)
    | Array items ->
      container depth '[' ']' (List.exists nested items) items (value (depth + 1))
    | Object members ->
      container depth '{' '}'
        (List.exists (fun (_, v) -> nested v) members)
        members
        (fun (k, v) ->
          Buffer.add_string b (string k);
          Buffer.add_string b ": ";
          value (depth + 1) v)
  and container :
        'a. int -> char -> char -> bool -> 'a list -> ('a -> unit) -> unit =
   fun depth opening closing nested items item ->
    let broken = nested && depth < 2 in
    let newline depth =
      if broken then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (2 * depth) ' ')
      end
    in
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if broken then "," else ", ");
        newline (depth + 1);
        item x)
      items;
    newline depth;
    Buffer.add_char b closing
  in
  value 0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser: recursive-descent over the byte string                      *)
(* ------------------------------------------------------------------ *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word =
    String.iter
      (fun c ->
        match peek () with
        | Some x when x = c -> advance ()
        | _ -> fail (Printf.sprintf "bad literal (expected %s)" word))
      word
  in
  (* Encode a Unicode scalar value as UTF-8 (up to 4 bytes). *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        closed := true
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char buf '"'
        | Some '\\' -> advance (); Buffer.add_char buf '\\'
        | Some '/' -> advance (); Buffer.add_char buf '/'
        | Some 'b' -> advance (); Buffer.add_char buf '\b'
        | Some 'f' -> advance (); Buffer.add_char buf '\012'
        | Some 'n' -> advance (); Buffer.add_char buf '\n'
        | Some 'r' -> advance (); Buffer.add_char buf '\r'
        | Some 't' -> advance (); Buffer.add_char buf '\t'
        | Some 'u' ->
          advance ();
          let hex4 () =
            let cp = ref 0 in
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code '0');
                advance ()
              | Some ('a' .. 'f' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code 'a' + 10);
                advance ()
              | Some ('A' .. 'F' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code 'A' + 10);
                advance ()
              | _ -> fail "bad \\u escape"
            done;
            !cp
          in
          let u = hex4 () in
          if u >= 0xD800 && u <= 0xDBFF then begin
            (* High surrogate: must be followed by [\uDC00-\uDFFF]; the
               pair encodes one supplementary-plane code point. *)
            (match peek () with
            | Some '\\' -> advance ()
            | _ -> fail "lone high surrogate");
            (match peek () with
            | Some 'u' -> advance ()
            | _ -> fail "lone high surrogate");
            let lo = hex4 () in
            if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate";
            add_utf8 buf
              (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if u >= 0xDC00 && u <= 0xDFFF then fail "lone low surrogate"
          else add_utf8 buf u
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c
    done;
    Buffer.contents buf
  in
  let digits () =
    let start = !pos in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected digit"
  in
  let parse_number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
     | Some '0' -> advance ()
     | Some '1' .. '9' -> digits ()
     | _ -> fail "bad number");
    (match peek () with
     | Some '.' ->
       advance ();
       digits ()
     | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Object []
      end
      else begin
        let members = ref [] in
        let more = ref true in
        while !more do
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          members := (key, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some '}' ->
            advance ();
            more := false
          | _ -> fail "expected , or } in object"
        done;
        Object (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Array []
      end
      else begin
        let items = ref [] in
        let more = ref true in
        while !more do
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some ']' ->
            advance ();
            more := false
          | _ -> fail "expected , or ] in array"
        done;
        Array (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' ->
      literal "true";
      Bool true
    | Some 'f' ->
      literal "false";
      Bool false
    | Some 'n' ->
      literal "null";
      Null
    | Some ('-' | '0' .. '9') -> parse_number () |> fun v -> Number v
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing data at offset %d" !pos)
    else Ok v
  with Bad (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

(* ------------------------------------------------------------------ *)
(* Accessors over parsed values                                        *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Object members -> List.assoc_opt key members
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_number = function Number v -> Some v | _ -> None
let get_list = function Array items -> Some items | _ -> None
