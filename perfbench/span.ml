(* The benchmark's own spans: host-time intervals around its calls into each
   layer.  They are kept in memory and printed when the run ends.  Recording
   is off unless [enabled] is set, so timed runs carry no span cost.

   A child process starts from its parent's [state], so its spans nest under
   the job span that started it; [adopt] takes a child's spans back and moves
   [next] past their ids. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let enabled = ref false
let recorded = ref []
let next = ref 0
let current = ref (-1)

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next and parent = !current in
    incr next;
    current := id;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        recorded := { id; parent; name; start; stop = Unix.gettimeofday () } :: !recorded;
        current := parent)
      f
  end

(* What a child process needs to continue this process's span tree. *)
let state () = (!enabled, !next, !current)

let restore (e, n, c) =
  enabled := e;
  next := n;
  current := c

let take () =
  let spans = List.rev !recorded in
  recorded := [];
  spans

let adopt spans =
  List.iter (fun s -> next := max !next (s.id + 1)) spans;
  recorded := List.rev_append spans !recorded

let duration s = s.stop -. s.start

(* A span's self time: its duration less what its children cover. *)
let self_time spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) spans
