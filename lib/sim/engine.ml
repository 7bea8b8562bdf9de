type timer = { mutable cancelled : bool; fire : unit -> unit }

type event = { time : float; seq : int; timer : timer }

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Heap.t;
  registry : Stellar_obs.Registry.t;
  c_fired : Stellar_obs.Registry.counter;
  c_cancelled : Stellar_obs.Registry.counter;
  g_pending : Stellar_obs.Registry.gauge;
}

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  let registry = Stellar_obs.Registry.create () in
  {
    clock = 0.0;
    next_seq = 0;
    queue = Heap.create ~cmp:compare_event;
    registry;
    c_fired = Stellar_obs.Registry.counter registry "sim.events.fired";
    c_cancelled = Stellar_obs.Registry.counter registry "sim.events.cancelled";
    g_pending = Stellar_obs.Registry.gauge registry "sim.queue.pending";
  }

let registry t = t.registry
let now t = t.clock

let schedule_at t ~time fire =
  let time = Float.max time t.clock in
  let timer = { cancelled = false; fire } in
  Heap.push t.queue { time; seq = t.next_seq; timer };
  t.next_seq <- t.next_seq + 1;
  timer

let schedule t ~delay fire = schedule_at t ~time:(t.clock +. Float.max 0.0 delay) fire

let cancel timer = timer.cancelled <- true

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      t.clock <- Float.max t.clock ev.time;
      (if ev.timer.cancelled then Stellar_obs.Registry.incr t.c_cancelled
       else begin
         Stellar_obs.Registry.incr t.c_fired;
         ev.timer.fire ()
       end);
      true

let run ?until t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some ev -> (
        match until with
        | Some limit when ev.time > limit ->
            t.clock <- limit;
            continue := false
        | _ -> ignore (step t))
  done;
  Stellar_obs.Registry.set t.g_pending (float_of_int (Heap.size t.queue))

let pending t = Heap.size t.queue
