type validation = Invalid | Valid

type counters = {
  nominate_start : Stellar_obs.Registry.counter;
  nomination_round : Stellar_obs.Registry.counter;
  ballot_bump : Stellar_obs.Registry.counter;
  timeout_nomination : Stellar_obs.Registry.counter;
  timeout_ballot : Stellar_obs.Registry.counter;
  phase_confirm : Stellar_obs.Registry.counter;
  phase_externalize : Stellar_obs.Registry.counter;
  received : Types.pledge -> Stellar_obs.Registry.counter;
}

type t = {
  emit_envelope : Types.envelope -> unit;
  sign : string -> string;
  verify : Types.node_id -> msg:string -> signature:string -> bool;
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
  value_externalized : slot:int -> Types.value -> unit;
  nomination_timeout : round:int -> float;
  ballot_timeout : counter:int -> float;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
  on_ballot_bump : slot:int -> counter:int -> unit;
  obs : Stellar_obs.Sink.t;
  counters : counters;
}

let default_nomination_timeout ~round = float_of_int (1 + round)
let default_ballot_timeout ~counter = float_of_int (1 + counter)

let counters obs =
  let c = Stellar_obs.Sink.counter obs in
  let nominate = c "scp.nominate.recv"
  and prepare = c "scp.ballot.prepare"
  and confirm = c "scp.ballot.confirm"
  and externalize = c "scp.ballot.externalize" in
  {
    nominate_start = c "scp.nominate.start";
    nomination_round = c "scp.nomination.round";
    ballot_bump = c "scp.ballot.bump";
    timeout_nomination = c "scp.timeout.nomination";
    timeout_ballot = c "scp.timeout.ballot";
    phase_confirm = c "scp.phase.confirm";
    phase_externalize = c "scp.phase.externalize";
    received =
      (function
      | Types.Nominate _ -> nominate
      | Types.Prepare _ -> prepare
      | Types.Confirm _ -> confirm
      | Types.Externalize _ -> externalize);
  }

let make ~emit_envelope ~sign ~verify ~validate_value ~combine_candidates
    ~value_externalized ~schedule ?(nomination_timeout = default_nomination_timeout)
    ?(ballot_timeout = default_ballot_timeout)
    ?(on_ballot_bump = fun ~slot:_ ~counter:_ -> ()) ?(obs = Stellar_obs.Sink.null) () =
  {
    emit_envelope;
    sign;
    verify;
    validate_value;
    combine_candidates;
    value_externalized;
    nomination_timeout;
    ballot_timeout;
    schedule;
    on_ballot_bump;
    obs;
    counters = counters obs;
  }
