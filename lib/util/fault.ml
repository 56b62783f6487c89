type t =
  | Bad_input of { context : string; line : int option; message : string }
  | Numeric of string
  | Worker_crash of exn * Printexc.raw_backtrace
  | Timeout of string
  | Overload of string

exception Error of t

let bad_input ?line ~context message = Bad_input { context; line; message }
let numeric message = Numeric message

let worker_crash e bt = Worker_crash (e, bt)
let timeout message = Timeout message
let overload message = Overload message

let to_string = function
  | Bad_input { context; line; message } ->
    let where =
      match line with
      | Some l -> Printf.sprintf "%s, line %d" context l
      | None -> context
    in
    Printf.sprintf "%s: %s" where message
  | Numeric message -> "non-finite result: " ^ message
  | Worker_crash (e, _) -> "worker crashed: " ^ Printexc.to_string e
  | Timeout message -> "deadline exceeded: " ^ message
  | Overload message -> "overloaded: " ^ message

let tag = function
  | Bad_input _ -> "bad-input"
  | Numeric _ -> "numeric"
  | Worker_crash _ -> "crash"
  | Timeout _ -> "timeout"
  | Overload _ -> "overload"

(* Checkpoint logs and wire replies store faults as
   [tag message-on-one-line]; the exact exception and backtrace of a
   [Worker_crash] cannot round-trip, so it comes back as a [Crashed]
   that prints as the original exception did. *)
let to_line ft =
  let flat s = String.map (function '\n' | '\r' -> ' ' | c -> c) s in
  tag ft ^ " " ^ flat (to_string ft)

exception Crashed of string

let () = Printexc.register_printer (function Crashed s -> Some s | _ -> None)

(* [of_line] undoes [to_string]'s rendering, so that the fault it
   rebuilds renders to the same string: strip a variant's prefix, and
   split a bad input's [where: message] at its first [": "]. *)
let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s >= pl && String.sub s 0 pl = prefix then
    String.sub s pl (String.length s - pl)
  else s

let bad_input_of_line s =
  let n = String.length s in
  let rec split i =
    if i + 1 >= n then Bad_input { context = "input"; line = None; message = s }
    else if s.[i] = ':' && s.[i + 1] = ' ' then
      let message = String.sub s (i + 2) (n - i - 2) in
      Bad_input { context = String.sub s 0 i; line = None; message }
    else split (i + 1)
  in
  split 0

let of_line ~tag:tg message =
  match tg with
  | "numeric" -> Some (Numeric (strip_prefix ~prefix:"non-finite result: " message))
  | "crash" ->
    let rendered = strip_prefix ~prefix:"worker crashed: " message in
    Some (Worker_crash (Crashed rendered, Printexc.get_callstack 0))
  | "bad-input" -> Some (bad_input_of_line message)
  | "timeout" -> Some (Timeout (strip_prefix ~prefix:"deadline exceeded: " message))
  | "overload" -> Some (Overload (strip_prefix ~prefix:"overloaded: " message))
  | _ -> None

(* Re-raising preserves legacy behavior at boundaries that still want
   exceptions: a captured worker crash propagates as the original
   exception with its original backtrace. *)
let raise_error ft =
  match ft with
  | Worker_crash (e, bt) -> Printexc.raise_with_backtrace e bt
  | _ -> raise (Error ft)

let or_raise = function Ok v -> v | Error ft -> raise_error ft

let protect ~context f =
  try Ok (f ()) with
  | Error ft -> Result.Error ft
  | e -> Result.Error (Bad_input { context; line = None; message = Printexc.to_string e })
