(* The repo's one JSON value type: a printer every exporter writes
   through, and a recursive-descent reader for the documents it writes
   back (the bench regression gate, trace analysis).  The toolchain
   constraint is "no new dependencies", so both live here.  The reader
   accepts exactly RFC 8259 JSON: all numbers become floats, objects keep
   field order, [null] is a value of its own.  Error messages carry the
   byte offset. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

type cursor = { src : string; mutable pos : int }

let error c msg = raise (Parse_error (c.pos, msg))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | Some got -> error c (Printf.sprintf "expected %c, found %c" ch got)
  | None -> error c (Printf.sprintf "expected %c, found end of input" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  (* Called past the opening quote. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> error c "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.src then error c "truncated \\u escape";
                let hex = String.sub c.src c.pos 4 in
                let digit ch =
                  match ch with
                  | '0' .. '9' -> Char.code ch - Char.code '0'
                  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
                  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
                  | _ -> error c (Printf.sprintf "bad \\u escape %S" hex)
                in
                let code = String.fold_left (fun acc ch -> (acc * 16) + digit ch) 0 hex in
                c.pos <- c.pos + 4;
                (* UTF-8 encode the code point; surrogates are kept verbatim
                   as their bytes would be meaningless anyway — the
                   documents this reader exists for never emit them. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> error c (Printf.sprintf "bad escape \\%c" e));
            go ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259 number grammar:  -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
   Checked here because float_of_string alone also takes "01", "1.",
   "-.5" and "1_0". *)
let parse_number c =
  let start = c.pos in
  let digit () = match peek c with Some '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (digit ()) then error c "expected a digit";
    while digit () do
      c.pos <- c.pos + 1
    done
  in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  if peek c = Some '0' then c.pos <- c.pos + 1 else digits ();
  if peek c = Some '.' then begin
    c.pos <- c.pos + 1;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      c.pos <- c.pos + 1;
      (match peek c with Some ('+' | '-') -> c.pos <- c.pos + 1 | _ -> ());
      digits ()
  | _ -> ());
  Number (float_of_string (String.sub c.src start (c.pos - start)))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          expect c '"';
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((key, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> error c "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> error c "expected , or ] in array"
        in
        List (items [])
      end
  | Some '"' ->
      c.pos <- c.pos + 1;
      String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c (Printf.sprintf "unexpected character %c" ch)

let parse src =
  let c = { src; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length src then error c "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at byte %d: %s" pos msg)

let parse_exn src =
  match parse src with Ok v -> v | Error e -> invalid_arg ("Json.parse: " ^ e)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | src -> parse src
  | exception Sys_error e -> Error e

(* --- Printer ------------------------------------------------------------ *)

let option f = function Some v -> f v | None -> Null

(* JSON has no nan/infinity literals; they print as null so the document
   always parses (a never-observed quantile is nan by contract).  Integral
   floats below 1e15 print without a fraction, everything else to 9
   significant digits; [Int]s print exactly. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.9g" v
  else "null"

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | ch when Char.code ch < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"'

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Number v -> Buffer.add_string buf (number v)
  | String s -> add_string buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_string buf k;
          Buffer.add_string buf ": ";
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- Accessors --------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let path keys v = List.fold_left (fun acc key -> Option.bind acc (member key)) (Some v) keys
let as_float = function Number v -> Some v | Int i -> Some (float_of_int i) | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_string = function String s -> Some s | _ -> None
let as_list = function List vs -> Some vs | _ -> None
let keys = function Obj fields -> List.map fst fields | _ -> []
