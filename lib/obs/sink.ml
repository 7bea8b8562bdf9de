type t = {
  node : int;
  now : unit -> float;
  metrics : Registry.t;
  counts : bool;  (* false only for [null] *)
  trace : Trace.t option;
}

let null =
  { node = -1; now = (fun () -> 0.0); metrics = Registry.create (); counts = false; trace = None }

let make ?trace ~node ~now metrics = { node; now; metrics; counts = true; trace }

let enabled t = Option.is_some t.trace
let metrics t = t.metrics

let emit t ev =
  match t.trace with
  | Some tr ->
      if not (Trace.try_record tr ~time:(t.now ()) ~node:t.node ev) then
        (* cold path: only taken once the trace hit its capacity bound *)
        Registry.incr (Registry.counter t.metrics "obs.trace.dropped")
  | None -> ()

let counter t name =
  if t.counts then Registry.counter t.metrics name else Registry.detached_counter ()

let gauge t name = if t.counts then Registry.gauge t.metrics name else Registry.detached_gauge ()
