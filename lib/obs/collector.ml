type t = { trace : Trace.t; sim_registry : Registry.t; node_registries : Registry.t array }

let create ~trace ~sim node_registries = { trace; sim_registry = sim; node_registries }
let trace t = t.trace
let registry t i = t.node_registries.(i)

let aggregate t =
  Registry.merge (t.sim_registry :: Array.to_list t.node_registries)
