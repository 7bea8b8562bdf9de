(** The application interface to SCP.

    SCP agrees on opaque values; everything application-specific —
    validation, combining candidate values, signing, timers, and what to do
    with an externalized value — is supplied by the driver (in Stellar, the
    herder). *)

type validation = Invalid | Valid

type counters = {
  nominate_start : Stellar_obs.Registry.counter;  (** [scp.nominate.start] *)
  nomination_round : Stellar_obs.Registry.counter;  (** [scp.nomination.round] *)
  ballot_bump : Stellar_obs.Registry.counter;  (** [scp.ballot.bump] *)
  timeout_nomination : Stellar_obs.Registry.counter;  (** [scp.timeout.nomination] *)
  timeout_ballot : Stellar_obs.Registry.counter;  (** [scp.timeout.ballot] *)
  phase_confirm : Stellar_obs.Registry.counter;  (** [scp.phase.confirm] *)
  phase_externalize : Stellar_obs.Registry.counter;  (** [scp.phase.externalize] *)
  received : Types.pledge -> Stellar_obs.Registry.counter;
      (** Per pledge type of a received statement: [scp.nominate.recv],
          [scp.ballot.prepare], [scp.ballot.confirm],
          [scp.ballot.externalize]. *)
}
(** The [scp.*] handles, resolved once from the driver's sink. *)

type t = {
  emit_envelope : Types.envelope -> unit;
      (** Broadcast a signed envelope to peers. *)
  sign : string -> string;
  verify : Types.node_id -> msg:string -> signature:string -> bool;
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
      (** Deterministically combine confirmed-nominated values into a single
          composite (§5.3). *)
  value_externalized : slot:int -> Types.value -> unit;
  nomination_timeout : round:int -> float;
  ballot_timeout : counter:int -> float;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
      (** [schedule ~delay f] starts a timer and returns its cancel
          function. *)
  on_ballot_bump : slot:int -> counter:int -> unit;
      (** Called whenever the local ballot counter changes, after the bump
          is counted and traced. *)
  obs : Stellar_obs.Sink.t;
      (** The node's sink: nomination and balloting count every step in
          {!counters}; with a trace they also emit the matching events
          (nomination start and rounds, ballot bumps, confirm/externalize
          phase changes, timeouts). *)
  counters : counters;
}

val make :
  emit_envelope:(Types.envelope -> unit) ->
  sign:(string -> string) ->
  verify:(Types.node_id -> msg:string -> signature:string -> bool) ->
  validate_value:(slot:int -> Types.value -> validation) ->
  combine_candidates:(slot:int -> Types.value list -> Types.value option) ->
  value_externalized:(slot:int -> Types.value -> unit) ->
  schedule:(delay:float -> (unit -> unit) -> unit -> unit) ->
  ?nomination_timeout:(round:int -> float) ->
  ?ballot_timeout:(counter:int -> float) ->
  ?on_ballot_bump:(slot:int -> counter:int -> unit) ->
  ?obs:Stellar_obs.Sink.t ->
  unit ->
  t
(** [obs] defaults to {!Stellar_obs.Sink.null}: nothing counted or traced. *)

val default_nomination_timeout : round:int -> float
(** stellar-core's schedule: [1 + round] seconds. *)

val default_ballot_timeout : counter:int -> float
(** stellar-core's schedule: [1 + counter] seconds. *)
