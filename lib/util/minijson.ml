type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of int * string (* byte position, message *)

let fail pos msg = raise (Parse_error (pos, msg))

type state = { src : string; mutable pos : int }

let peek st = if st.pos >= String.length st.src then '\255' else st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if peek st <> c then
    fail st.pos (Printf.sprintf "expected %C, found %C" c (peek st))
  else advance st

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

(* UTF-8-encode one \uXXXX code point.  Surrogate pairs are not
   recombined — {!print} only escapes ASCII control characters, so lone
   escapes below U+0800 are the realistic input. *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    (* [peek]'s end-of-input sentinel is also a legal raw byte here *)
    | _ when st.pos >= String.length st.src -> fail st.pos "unterminated string"
    | '"' -> advance st
    | '\\' ->
      advance st;
      (match peek st with
      | '"' -> Buffer.add_char buf '"'; advance st
      | '\\' -> Buffer.add_char buf '\\'; advance st
      | '/' -> Buffer.add_char buf '/'; advance st
      | 'b' -> Buffer.add_char buf '\b'; advance st
      | 'f' -> Buffer.add_char buf '\012'; advance st
      | 'n' -> Buffer.add_char buf '\n'; advance st
      | 'r' -> Buffer.add_char buf '\r'; advance st
      | 't' -> Buffer.add_char buf '\t'; advance st
      | 'u' ->
        advance st;
        if st.pos + 4 > String.length st.src then
          fail st.pos "truncated \\u escape";
        let hex = String.sub st.src st.pos 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some cp -> add_codepoint buf cp
        | None -> fail st.pos (Printf.sprintf "bad \\u escape %S" hex));
        st.pos <- st.pos + 4
      | c -> fail st.pos (Printf.sprintf "bad escape \\%C" c));
      loop ()
    | c when Char.code c < 0x20 -> fail st.pos "raw control byte in string"
    | c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let digits () =
    while match peek st with '0' .. '9' -> true | _ -> false do
      advance st
    done
  in
  if peek st = '-' then advance st;
  digits ();
  if peek st = '.' then begin advance st; digits () end;
  (match peek st with
  | 'e' | 'E' ->
    advance st;
    (match peek st with '+' | '-' -> advance st | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> fail start (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | '{' ->
    advance st;
    skip_ws st;
    if peek st = '}' then begin advance st; Obj [] end
    else begin
      let members = ref [] in
      let rec next () =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        members := (key, v) :: !members;
        skip_ws st;
        match peek st with
        | ',' -> advance st; next ()
        | '}' -> advance st
        | c -> fail st.pos (Printf.sprintf "expected ',' or '}', found %C" c)
      in
      next ();
      Obj (List.rev !members)
    end
  | '[' ->
    advance st;
    skip_ws st;
    if peek st = ']' then begin advance st; Arr [] end
    else begin
      let items = ref [] in
      let rec next () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | ',' -> advance st; next ()
        | ']' -> advance st
        | c -> fail st.pos (Printf.sprintf "expected ',' or ']', found %C" c)
      in
      next ();
      Arr (List.rev !items)
    end
  | '"' -> Str (parse_string st)
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | 'n' -> literal st "null" Null
  | '-' | '0' .. '9' -> parse_number st
  | c -> fail st.pos (Printf.sprintf "unexpected %C" c)

let line_of_pos src pos =
  let line = ref 1 in
  for i = 0 to min pos (String.length src) - 1 do
    if src.[i] = '\n' then incr line
  done;
  !line

let parse ~context src =
  let st = { src; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then
      fail st.pos "trailing bytes after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
    Error (Fault.bad_input ~line:(line_of_pos src pos) ~context msg)
  | exception Stack_overflow ->
    Error (Fault.bad_input ~context "JSON nesting too deep")

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let to_float = function
  | Num v -> Some v
  | Str s -> float_of_string_opt s
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

(* ---- Decoding ---- *)

exception Decode of string

let fail msg = raise (Decode msg)

let need what = function Some v -> v | None -> fail ("missing " ^ what)

let field what conv json = need what (Option.bind (member what json) conv)

let decode ~context text read =
  Result.bind (parse ~context text) (fun json ->
      match read json with
      | v -> Ok v
      | exception Decode msg -> Error (Fault.bad_input ~context msg)
      | exception Fault.Error ft -> Error ft
      | exception e -> Error (Fault.bad_input ~context (Printexc.to_string e)))

(* ---- Printer ---- *)

let int n = Num (float_of_int n)

let hex v = Str (Printf.sprintf "%h" v)

(* Quote, backslash and the ASCII control bytes are escaped; every other
   byte, non-ASCII included, is written as it is. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no non-finite literals.  Integers below 2^53 are exact in a
   float and print as integers; anything else keeps nine significant
   digits. *)
let number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 0x1p53 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let print v =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let block indent opening closing item = function
    | [] -> add opening; add closing
    | items ->
      let inner = indent ^ "  " in
      add opening;
      List.iteri
        (fun i x ->
          add (if i = 0 then "\n" else ",\n");
          add inner;
          item inner x)
        items;
      add "\n";
      add indent;
      add closing
  in
  let rec value indent = function
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Num f -> add (number f)
    | Str s -> add_quoted buf s
    | Arr items -> block indent "[" "]" value items
    | Obj members ->
      block indent "{" "}"
        (fun inner (key, x) ->
          add_quoted buf key;
          add ": ";
          value inner x)
        members
  in
  value "" v;
  add "\n";
  Buffer.contents buf
