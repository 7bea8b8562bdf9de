(** The instrumentation hook handed to every subsystem.

    A sink binds a node id and a (simulated-)time source to that node's
    metric {!Registry.t} and an optional shared {!Trace.t}.  A node's sink
    always counts: counters and gauges are written through {!Registry}
    handles a subsystem resolves once, observed or not.  The trace is what
    observing adds: {!enabled} means "has a trace", and call sites guard
    every {!emit} payload with it, so an unobserved run builds no events.

    {!null} is for code run outside a node (unit tests, archive replay,
    probes): it resolves every name to a detached handle, so writes need no
    branch, record nothing, and its registry stays empty. *)

type t

val null : t
(** No trace, and counts go nowhere. *)

val make : ?trace:Trace.t -> node:int -> now:(unit -> float) -> Registry.t -> t
(** A node's sink over its registry; [trace] makes it {!enabled}. *)

val enabled : t -> bool
(** The sink has a trace: event payloads are worth building. *)

val metrics : t -> Registry.t

val emit : t -> Event.t -> unit
(** Stamp with node and current time, append to the trace (if any).  When
    the trace is at capacity the event is discarded and the node's
    [obs.trace.dropped] counter incremented instead. *)

val counter : t -> string -> Registry.counter
val gauge : t -> string -> Registry.gauge
(** Resolve a name once.  {!null} returns a fresh detached handle and
    leaves its registry empty. *)
