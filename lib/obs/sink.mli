(** The instrumentation hook handed to every subsystem.

    A sink binds a node id and a (simulated-)time source to a metric
    {!Registry.t} and an optional shared {!Trace.t}.  Counters and gauges
    are written through {!Registry} handles that a subsystem resolves once,
    where its sink is fixed; a disabled sink resolves every name to a
    detached handle, so writes need no branch and record nothing.  The
    {!null} sink is disabled: {!emit} and {!observe} are a single boolean
    test.  Call sites that build event payloads, or compute a gauge value
    at some cost, should still guard with {!enabled}. *)

type t

val null : t
(** Disabled sink: all operations are no-ops. *)

val make : ?trace:Trace.t -> node:int -> now:(unit -> float) -> Registry.t -> t
(** An enabled sink.  Without [trace], metrics are recorded but no events
    (the mode the network uses for its always-on byte accounting). *)

val enabled : t -> bool
val node : t -> int
val metrics : t -> Registry.t
val now : t -> float

val emit : t -> Event.t -> unit
(** Stamp with node and current time, append to the trace (if any).  When
    the trace is at capacity the event is discarded and the node's
    [obs.trace.dropped] counter incremented instead. *)

val counter : t -> string -> Registry.counter
val gauge : t -> string -> Registry.gauge
(** Resolve a name once.  A disabled sink returns a fresh detached handle
    and leaves its registry empty. *)

val observe : t -> string -> float -> unit
(** Histogram sample, looked up by name: it runs once per ledger. *)
