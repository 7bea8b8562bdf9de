(** Per-node metric registry: counters and gauges keyed by dotted names
    ("scp.ballot.prepare", "herder.queue.size", ...).

    Registering a name twice returns the same handle; registering it with a
    different metric kind raises [Invalid_argument].  Registries from many
    nodes aggregate with {!merge} (counters add; gauges sum).

    Handles ([counter], [gauge]) are plain mutable records so hot paths pay
    a field update, not a hash lookup. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val detached_counter : unit -> counter
val detached_gauge : unit -> gauge
(** Handles registered nowhere: what {!Sink.null} resolves names to, so
    writers need no branch and nothing is recorded. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

(* Read-side: value lookups by name (0 / 0.0 when absent). *)
val counter_value : t -> string -> int
val gauge_value : t -> string -> float

val names : t -> string list
(** Sorted. *)

val merge_into : dst:t -> t -> unit
val merge : t list -> t
