(** One observed run: a shared trace, one registry per node, and a separate
    registry for the simulation engine itself.  Hand [sink t i] to node [i]'s
    validator/network slot and {!sim_sink} to the engine. *)

type t

val create : ?trace_capacity:int -> n:int -> now:(unit -> float) -> unit -> t
(** [now] is the simulated clock (e.g. [fun () -> Engine.now engine]).
    [trace_capacity] bounds the shared trace (see {!Trace.create}); events
    past the bound are dropped and counted per node as
    [obs.trace.dropped]. *)

val trace : t -> Trace.t
val n_nodes : t -> int

val sink : t -> int -> Sink.t

val sim_sink : t -> Sink.t
(** Sink for run-level instrumentation (the engine's counters, and
    fault-injection events that belong to no single node); it shares the
    run's trace and stamps events with node id -1. *)

val registry : t -> int -> Registry.t

val aggregate : t -> Registry.t
(** All node registries plus the sim registry merged into one. *)
