(* A fixed reference job owned by the benchmark.  Host speed drifts by tens of
   percent within a minute on small shared machines.  Timing this job in every
   round, and scaling the timed runs by it, removes much of that drift.  No
   change to the program under test can move the job. *)

let job () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let sorted = List.sort compare (List.init 100_000 (fun i -> i * 48271 mod 65521)) in
  let b = Bytes.make (1 lsl 20) 'x' in
  let acc = ref 0 in
  for i = 0 to (Bytes.length b / 4) - 1 do
    acc := (!acc lxor Int32.to_int (Bytes.get_int32_le b (i * 4))) * 16777619 land 0xffffffff
  done;
  Hashtbl.length h + List.length sorted + !acc

(* The job's host time on the host the benchmark's scaled seconds refer to. *)
let reference_s = 0.05

(* Mean host time of three runs of the job. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (job ()))
  done;
  (Unix.gettimeofday () -. t0) /. 3.0
