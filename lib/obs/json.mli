(** The one JSON writer: every trace line and every [BENCH_*.json]
    artifact is built as a {!t} and printed here.  Writing only — nothing
    in the repository parses JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with [d] decimals ([%.*f]), so each
          number keeps a fixed width across runs *)
  | String of string  (** escaped on output *)
  | List of t list
  | Obj of (string * t) list  (** members in the order given *)

val compact : t -> string
(** No whitespace at all; the trace's line format.  Raises
    [Invalid_argument] on a non-finite [Fixed] (JSON has no [nan]). *)

val document : (string * t) list -> string
(** An artifact file: the root object with these members, one per line at
    indent 2, then ["\n}\n"].  A member that is a non-empty object of
    scalars puts its own members one per line at indent 4; a member that is
    an array with any element nesting a list or object puts each element on
    its own line at indent 4; every other value is {!compact}.  Raises like
    {!compact}. *)
