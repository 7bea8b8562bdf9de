(** One observed run: the shared trace, one registry per node, and the
    registry of the simulation engine itself.  The registries are the ones
    the run counts in whether or not it is observed; observing adds only
    the trace. *)

type t

val create : trace:Trace.t -> sim:Registry.t -> Registry.t array -> t
(** [sim] holds the run-level counters (the engine's, and trace drops of
    events that belong to no single node); the array holds node [i]'s
    registry at index [i]. *)

val trace : t -> Trace.t
val registry : t -> int -> Registry.t

val aggregate : t -> Registry.t
(** All node registries plus the sim registry merged into one. *)
