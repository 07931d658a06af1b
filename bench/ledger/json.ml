(* The few JSON shapes the ledger reads and writes: flat
   one-object-per-line run records, its own result line, and
   BENCHMARK.json.  yojson is not available, so this is a small writer
   and a recursive-descent scanner for the full grammar. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print without a fraction; everything else with all
   17 significant digits, so a time reads back exactly as measured. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"

exception Parse_error of string

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !i)) in
  let rec ws () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t')
    then (incr i; ws ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    if !i + String.length word <= n && String.sub s !i (String.length word) = word
    then (i := !i + String.length word; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !i >= n then fail "bad escape";
        let e = s.[!i] in
        incr i;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !i + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !i 4) in
          i := !i + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number_lit () =
    let start = !i in
    while
      !i < n
      && match s.[!i] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = '}' then (incr i; Obj [])
      else
        let rec members acc =
          ws ();
          let k = string_lit () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; members ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        members []
    | '[' ->
      incr i;
      ws ();
      if !i < n && s.[!i] = ']' then (incr i; Arr [])
      else
        let rec elems acc =
          let v = value () in
          ws ();
          if !i < n && s.[!i] = ',' then (incr i; elems (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        elems []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number_lit ()
  in
  let v = value () in
  ws ();
  if !i <> n then fail "trailing bytes";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
