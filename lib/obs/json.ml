type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char buf '\\'; Buffer.add_char buf c
      | '\n' -> Buffer.add_string buf {|\n|}
      | '\r' -> Buffer.add_string buf {|\r|}
      | '\t' -> Buffer.add_string buf {|\t|}
      | c when c < ' ' -> Printf.bprintf buf {|\u%04x|} (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [opening], the elements separated by [sep], then [closing]. *)
let add_seq buf (opening, sep, closing) add l =
  Buffer.add_string buf opening;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string buf sep; add x) l;
  Buffer.add_string buf closing

let add_member buf colon add_value (k, v) =
  add_string buf k;
  Buffer.add_string buf colon;
  add_value v

let rec add_compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Fixed (digits, x) ->
      if not (Float.is_finite x) then invalid_arg (Printf.sprintf "Json: non-finite float %h" x);
      Printf.bprintf buf "%.*f" digits x
  | String s -> add_string buf s
  | List l -> add_seq buf ("[", ",", "]") (add_compact buf) l
  | Obj members -> add_seq buf ("{", ",", "}") (add_member buf ":" (add_compact buf)) members

let compact v =
  let buf = Buffer.create 128 in
  add_compact buf v;
  Buffer.contents buf

let is_container = function List _ | Obj _ -> true | _ -> false

let holds_container = function
  | List l -> List.exists is_container l
  | Obj members -> List.exists (fun (_, v) -> is_container v) members
  | _ -> false

let document members =
  let buf = Buffer.create 4096 in
  let add_value = function
    | Obj (_ :: _ as ms) as v when not (holds_container v) ->
        add_seq buf ("{\n    ", ",\n    ", "\n  }") (add_member buf ": " (add_compact buf)) ms
    | List l when List.exists holds_container l ->
        add_seq buf ("[", ",\n    ", "]") (add_compact buf) l
    | v -> add_compact buf v
  in
  add_seq buf ("{\n  ", ",\n  ", "\n}\n") (add_member buf ": " add_value) members;
  Buffer.contents buf
