(* The repo benchmark: host time to simulate the pinned workloads, with
   per-layer counts and probes.  Usage:

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--counts-dir DIR]

   --trace 0 prints the end-to-end metrics (timed with the benchmark's spans
   off); --trace 1 adds a traced run, the probes and the per-layer metrics.
   The last line of stdout is one JSON object with the keys correct,
   attempted, failed and metrics.  See README.md. *)

module Node = Stellar_node
module Scenario = Stellar_node.Scenario
module Obs = Stellar_obs

let now = Unix.gettimeofday

(* ---- jobs ---- *)

(* Run [f] in a fresh process of this program and hand back its result and
   spans.  Every Scenario.run starts from the same empty heap, so its peak
   heap and GC counts never include an earlier run's or the parent's. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  let job_r, job_w = Unix.pipe ~cloexec:true () and res_r, res_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--child" |] job_r res_w Unix.stderr in
  Unix.close job_r;
  Unix.close res_w;
  let oc = Unix.out_channel_of_descr job_w in
  Marshal.to_channel oc (f, Span.state ()) [ Marshal.Closures ];
  close_out oc;
  let ic = Unix.in_channel_of_descr res_r in
  let result, spans =
    try Marshal.from_channel ic with End_of_file -> (Error "child exited early", [])
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  Span.adopt spans;
  result

(* The child side of [in_child], entered through the --child flag. *)
let serve_child () =
  let (f : unit -> Obj.t), state = Marshal.from_channel stdin in
  Span.restore state;
  let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  Marshal.to_channel stdout (result, Span.take ()) [];
  exit 0

(* What a run computed.  [computed] must not depend on observing; the rest
   must repeat exactly between runs of one configuration and seed.

   GC counts repeat exactly only in unobserved runs.  Observed runs have
   been seen to differ by about 2 in 10^4 minor words; their path reads host
   time (the herder's apply CPU time feeds the ledger.apply_ms histogram). *)
let chain_head (r : Scenario.report) =
  match List.assoc_opt 0 r.chains with
  | Some chain -> ( match List.rev chain with head :: _ -> head | [] -> "")
  | None -> ""

let computed (r : Scenario.report) =
  [
    ("chain_head", chain_head r);
    ("ledgers_closed", string_of_int r.ledgers_closed);
    ("txs_applied", string_of_int r.txs_applied);
  ]

let repeatable (r : Scenario.report) ~encodes ~gc =
  let f x = Printf.sprintf "%h" x in
  let summary name (s : Node.Metrics.summary) =
    [ (name ^ ".mean", f s.mean); (name ^ ".p99", f s.p99) ]
  in
  computed r
  @ [
      ("txs_submitted", string_of_int r.txs_submitted);
      ("bytes_in_total", string_of_int r.bytes_in_total);
      ("bytes_out_total", string_of_int r.bytes_out_total);
      ("envelopes_per_ledger", f r.envelopes_per_ledger);
      ("message.encodes", string_of_int encodes);
    ]
  @ (match gc with
    | Some ((gc0 : Gc.stat), (gc1 : Gc.stat)) ->
        [
          ("gc.minor_words", f (gc1.minor_words -. gc0.minor_words));
          ("gc.major_collections", string_of_int (gc1.major_collections - gc0.major_collections));
        ]
    | None -> [])
  @ summary "nomination" r.nomination
  @ summary "balloting" r.balloting
  @ summary "total" r.total
  @ summary "close_interval" r.close_interval
  @ summary "nomination_timeouts" r.nomination_timeouts_per_ledger
  @ summary "ballot_timeouts" r.ballot_timeouts_per_ledger

let gate (r : Scenario.report) =
  (if r.converged then [] else [ "not converged" ]) @ if r.diverged then [ "diverged" ] else []

let mismatches a b =
  List.filter_map
    (fun (k, v) -> if List.assoc_opt k b = Some v then None else Some k)
    a

(* ---- timed runs: spans off ---- *)

type run = {
  wall_s : float;
  peak_heap_mb : float;
  minor_mwords : float;
  major_collections : int;
  encodes : int;
  close_cpu_ms_p50 : float;
  computed : (string * string) list;
  outcome : (string * string) list;
  problems : string list;
}

let timed_run params =
  in_child (fun () ->
      Span.enabled := false;
      let gc0 = Gc.quick_stat () and e0 = Node.Message.encode_count () in
      let t0 = now () in
      let r = Scenario.run params in
      let wall_s = now () -. t0 in
      let gc1 = Gc.quick_stat () in
      let encodes = Node.Message.encode_count () - e0 in
      {
        wall_s;
        peak_heap_mb = float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1e6;
        minor_mwords = (gc1.minor_words -. gc0.minor_words) /. 1e6;
        major_collections = gc1.major_collections - gc0.major_collections;
        encodes;
        close_cpu_ms_p50 = r.apply.p50 *. 1e3;
        computed = computed r;
        outcome =
          repeatable r ~encodes ~gc:(if params.Scenario.observe then None else Some (gc0, gc1));
        problems = gate r;
      })

(* ---- the observed run: program counters and reports ---- *)

type observed = {
  o_computed : (string * string) list;
  o_problems : string list;
  counts : (string * float) list;  (** deterministic: metric name -> value *)
  report_ms : float;
  closes : int;  (** ledger closes summed over nodes *)
  deliveries_by_kind : (string * int) list;
}

let sum_by f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let mean_by f l = if l = [] then 0.0 else sum_by f l /. float_of_int (List.length l)

let observed_run (w : Workload.t) ~seed =
  in_child (fun () ->
      let r = Span.with_ "Scenario.run" (fun () -> Scenario.run (Workload.params w ~seed ~observe:true)) in
      let c = Option.get r.telemetry in
      let trace = Obs.Collector.trace c and reg = Obs.Collector.aggregate c in
      let count name = Obs.Registry.counter_value reg name in
      let countf name = float_of_int (count name) in
      let r0 = now () in
      let report name f = Span.with_ ("Report." ^ name) f in
      let e2e = report "e2e_latency" (fun () -> Obs.Report.e2e_latency trace) in
      let lives = report "tx_lives" (fun () -> Obs.Report.tx_lives trace) in
      let cps = report "critical_paths" (fun () -> Obs.Report.critical_paths trace) in
      let recoveries = report "recoveries" (fun () -> Obs.Report.recoveries trace) in
      let heals = report "heals" (fun () -> Obs.Report.heals trace) in
      let report_ms = (now () -. r0) *. 1e3 in
      let latencies =
        List.filter_map
          (fun (l : Obs.Report.tx_life) ->
            match (l.submitted, l.externalized) with
            | Some t_sub, Some (_, t_ext) -> Some (t_ext -. t_sub)
            | _ -> None)
          lives
      in
      let n = List.length latencies in
      let tail_q = Stats.tail_percentile ~n in
      let identity_broken =
        List.filter
          (fun (cp : Obs.Report.critical_path) ->
            Float.abs (cp.network_s +. cp.timer_s +. cp.cpu_s -. cp.cp_total_s) > 1e-6)
          cps
      in
      let by_kind = Hashtbl.create 4 in
      Obs.Trace.iter trace (fun s ->
          match s.Obs.Trace.event with
          | Obs.Event.Flood_recv { kind; _ } | Obs.Event.Dedup_drop { kind; _ } ->
              Hashtbl.replace by_kind kind (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind kind))
          | _ -> ());
      let recover_s =
        List.filter_map (fun (x : Obs.Report.recovery) -> x.recover_s) recoveries
        @ List.filter_map (fun (h : Obs.Report.heal_report) -> h.heal_recover_s) heals
      in
      let ms = 1e3 in
      {
        o_computed = computed r;
        o_problems =
          gate r
          @ (if n = e2e.submit_to_externalize.n then []
             else [ "latency samples disagree with Report.e2e_latency" ])
          @ (if tail_q = None then [ Printf.sprintf "%d payments: too few for a tail" n ] else [])
          @ List.map
              (fun (cp : Obs.Report.critical_path) ->
                Printf.sprintf "slot %d: critical path misses its total by > 1us" cp.cp_slot)
              identity_broken;
        counts =
          [
            ("payment.p50_ms", e2e.submit_to_externalize.p50 *. ms);
            ( "payment.tail_ms",
              Obs.Report.percentile latencies (Option.value tail_q ~default:0.5) *. ms );
            ("payment.tail_pct", 100.0 *. Option.value tail_q ~default:0.0);
            ("payment.samples", float_of_int n);
            ( "payment.failed_share",
              Stats.failed_share ~submitted:r.txs_submitted ~applied:r.txs_applied );
            ("sim.events", countf "sim.events.fired");
            ("sim.deliveries", countf "overlay.msgs.received");
            ("sim.mb_delivered", countf "overlay.bytes.received" /. 1e6);
            ("validator.flood_unique", countf "flood.unique");
            ("validator.flood_dups", countf "flood.dup_dropped");
            ( "validator.flood_useful_ratio",
              Stats.useful_ratio ~unique:(count "flood.unique") ~dups:(count "flood.dup_dropped") );
            ("validator.dup_mb", countf "flood.dup_bytes" /. 1e6);
            ("validator.recover_max_s", List.fold_left Float.max 0.0 recover_s);
            ( "scp.envelopes_recv",
              sum_by countf
                [ "scp.nominate.recv"; "scp.ballot.prepare"; "scp.ballot.confirm"; "scp.ballot.externalize" ] );
            ("scp.timeouts", countf "scp.timeout.nomination" +. countf "scp.timeout.ballot");
            ("scp.ballot_bumps", countf "scp.ballot.bump");
            ("scp.cp_network_ms", ms *. mean_by (fun (cp : Obs.Report.critical_path) -> cp.network_s) cps);
            ("scp.cp_timer_ms", ms *. mean_by (fun (cp : Obs.Report.critical_path) -> cp.timer_s) cps);
            ("scp.cp_cpu_ms", ms *. mean_by (fun (cp : Obs.Report.critical_path) -> cp.cpu_s) cps);
            ( "herder.txs_per_ledger",
              float_of_int r.txs_applied /. float_of_int (max 1 r.ledgers_closed) );
            ("ledger.ops_applied", countf "ledger.ops.applied");
            ("bucket.merges", countf "bucket.merge");
            ( "archive.replayed_ledgers",
              sum_by (fun (x : Obs.Report.recovery) -> float_of_int x.replayed) recoveries );
            ("obs.trace_events", float_of_int (Obs.Trace.length trace));
          ];
        report_ms;
        closes = count "ledger.closed";
        deliveries_by_kind = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind [] |> List.sort compare;
      })

(* ---- a round's preamble: the reference job, then set-up ---- *)

(* The reference job's time, then the workload's set-up for about [budget]
   seconds (at least once), as (total, Bucket_list.of_state) host seconds.
   Small batches spread over the rounds make the set-up median span the same
   stretch of host time as the timed runs. *)
let prepare (w : Workload.t) ~budget =
  in_child (fun () ->
      let reference_s = Span.with_ "reference job" Calib.measure in
      let t_start = now () in
      let rec go acc =
        if acc <> [] && now () -. t_start >= budget then acc
        else begin
          let t0 = now () in
          let of_state_s =
            Span.with_ "setup" (fun () ->
                ignore (Span.with_ "Topology" w.spec);
                let genesis, _ =
                  Span.with_ "Genesis.make" (fun () -> Node.Genesis.make ~n_accounts:w.n_accounts ())
                in
                let t1 = now () in
                ignore
                  (Span.with_ "Bucket_list.of_state" (fun () ->
                       Stellar_bucket.Bucket_list.of_state genesis));
                now () -. t1)
          in
          go ((now () -. t0, of_state_s) :: acc)
        end
      in
      (reference_s, go []))

(* ---- determinism across invocations ---- *)

(* Remember the observed counts of this build, workload and seed under [dir]
   and compare later invocations against them. *)
let check_counts ~dir ~key counts =
  let file = Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".counts") in
  let lines = List.map (fun (k, v) -> Printf.sprintf "%s %h" k v) counts in
  if Sys.file_exists file then begin
    let ic = open_in file in
    let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
    let previous = read [] in
    close_in ic;
    List.filter (fun l -> not (List.mem l previous)) lines
  end
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out file in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    []
  end

(* ---- metrics ---- *)

let end_to_end = [ ("wall_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* Simulated results: deterministic for a seed, but they move with it, so
   they carry no bound (README.md, "Metrics"). *)
let payment =
  [
    ("payment.p50_ms", "ms");
    ("payment.tail_ms", "ms");
    ("payment.tail_pct", "pct");
    ("payment.samples", "count");
    ("payment.failed_share", "ratio");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.deliveries", "count");
    ("sim.mb_delivered", "MB");
    ("sim.step_ns", "ns");
    ("crypto.sha256_mb_s", "MB/s");
    ("crypto.sig_verify_us", "us");
    ("message.encodes", "count");
    ("message.encode_us.tx", "us");
    ("message.encode_us.txset", "us");
    ("message.encode_us.envelope", "us");
    ("validator.flood_unique", "count");
    ("validator.flood_dups", "count");
    ("validator.flood_useful_ratio", "ratio");
    ("validator.dup_mb", "MB");
    ("validator.recover_max_s", "s");
    ("scp.envelopes_recv", "count");
    ("scp.timeouts", "count");
    ("scp.ballot_bumps", "count");
    ("scp.cp_network_ms", "ms");
    ("scp.cp_timer_ms", "ms");
    ("scp.cp_cpu_ms", "ms");
    ("herder.txs_per_ledger", "count");
    ("herder.txset_build_ms", "ms");
    ("ledger.ops_applied", "count");
    ("ledger.apply_ms", "ms");
    ("ledger.close_cpu_ms_p50", "ms");
    ("bucket.merges", "count");
    ("bucket.add_batch_ms", "ms");
    ("bucket.of_state_ms", "ms");
    ("archive.replayed_ledgers", "count");
    ("obs.trace_events", "count");
    ("obs.overhead", "ratio");
    ("obs.report_ms", "ms");
    ("host.wall_raw_s", "s");
    ("host.reference_ms", "ms");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("share.sha256", "ratio");
    ("share.encode", "ratio");
    ("share.apply", "ratio");
    ("share.bucket", "ratio");
    ("share.sim", "ratio");
    ("share.other", "ratio");
  ]
  @ payment

type verdict = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let oks l = List.filter_map Result.to_option l
let median_by f l = Stats.median (List.map f l)

type round = {
  prep : (float * (float * float) list, string) result;  (** see [prepare] *)
  own : (run, string) result;  (** with the workload's own [observe] *)
  other : (run, string) result option;  (** the other [observe]; --trace 1 only *)
}

(* Everything one invocation measured for one workload. *)
type measured = {
  observed : (observed, string) result;
  rounds : round list;
  probes : ((string * float) list, string) result option;
}

(* At least two rounds, then more while one more would, at the mean round
   length so far, still end within [seconds]. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec go n acc =
    let elapsed = now () -. t0 in
    if n >= 2 && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds then List.rev acc
    else go (n + 1) (f () :: acc)
  in
  go 0 []

let measure (w : Workload.t) ~seed ~seconds ~trace =
  Span.enabled := trace;
  let job name f = Span.with_ ("job:" ^ name) f in
  let observed = job "observed-run" (fun () -> observed_run w ~seed) in
  let rounds =
    repeat ~seconds (fun () ->
        let prep = job "prepare" (fun () -> prepare w ~budget:0.1) in
        let own = timed_run (Workload.params w ~seed ~observe:w.observe) in
        (* obs.overhead pairs each run with one under the other setting *)
        let other =
          if trace then Some (timed_run (Workload.params w ~seed ~observe:(not w.observe)))
          else None
        in
        { prep; own; other })
  in
  let probes =
    match observed with
    | Ok o when trace ->
        let count k = List.assoc k o.counts in
        let txs_per_ledger = int_of_float (Float.round (count "herder.txs_per_ledger")) in
        let delivery_bytes = int_of_float (count "sim.mb_delivered" *. 1e6 /. count "sim.deliveries") in
        Some
          (job "probes" (fun () ->
               in_child (fun () -> Probe.run w ~seed ~txs_per_ledger ~delivery_bytes)))
    | _ -> None
  in
  { observed; rounds; probes }

(* Each run's own gate plus every way it differs from the first run of its
   configuration. *)
let judge_runs runs =
  let first = match oks runs with r :: _ -> r.outcome | [] -> [] in
  List.map
    (function
      | Error e -> [ e ]
      | Ok r -> (
          r.problems
          @
          match mismatches r.outcome first with
          | [] -> []
          | keys ->
              let show k = Printf.sprintf "%s %s, not %s" k (List.assoc k r.outcome) (List.assoc k first) in
              [ "differs from the first run in " ^ String.concat "; " (List.map show keys) ]))
    runs

(* The exact counts of one build, workload and seed, for [check_counts].  GC
   counts are exact only for unobserved runs (see [repeatable]). *)
let exact_counts (w : Workload.t) o first =
  o.counts
  @ ("message.encodes", float_of_int first.encodes)
    :: (if w.observe then []
        else
          [
            ("gc.minor_mwords", first.minor_mwords);
            ("gc.major_collections", float_of_int first.major_collections);
          ])

let own_runs m = List.map (fun r -> r.own) m.rounds
let other_runs m = List.filter_map (fun r -> r.other) m.rounds

(* The correctness gate: what went wrong, per job. *)
let checks (w : Workload.t) ~seed ~counts_dir m =
  let first = match oks (own_runs m) with r :: _ -> Some r | [] -> None in
  let unchanged_by_observing computed =
    match first with
    | None -> []
    | Some r -> (
        match mismatches computed r.computed with
        | [] -> []
        | keys -> [ "observing changed " ^ String.concat ", " keys ])
  in
  let same_as_earlier o =
    match (counts_dir, first) with
    | Some dir, Some r -> (
        let build = Digest.to_hex (Digest.file Sys.executable_name) in
        let key = String.concat " " [ build; w.name; string_of_int seed ] in
        match check_counts ~dir ~key (exact_counts w o r) with
        | [] -> []
        | lines -> [ "counts differ from an earlier run: " ^ String.concat "; " lines ])
    | _ -> []
  in
  let error_of = function Ok _ -> [] | Error e -> [ e ] in
  let numbered what l = List.mapi (fun i x -> (Printf.sprintf "%s %d" what (i + 1), x)) l in
  let others = other_runs m in
  [
    ( "observed run",
      match m.observed with
      | Error e -> [ e ]
      | Ok o -> o.o_problems @ unchanged_by_observing o.o_computed @ same_as_earlier o );
  ]
  @ numbered "set-up" (List.map (fun r -> error_of r.prep) m.rounds)
  @ numbered "timed run" (judge_runs (own_runs m))
  @ numbered "paired run"
      (List.map2
         (fun run ps -> ps @ match run with Ok r -> unchanged_by_observing r.computed | Error _ -> [])
         others (judge_runs others))
  @ match m.probes with Some p -> [ ("probes", error_of p) ] | None -> []

(* Every metric the measurements give, by name.  [wall_s] and [setup_s] are
   scaled by the reference job (see Calib): their mean host time over the
   job's mean time in this invocation, times the job's reference time.  Both
   means weigh the host's fast and slow spells alike, where medians of a few
   runs jump between them.  The rest is as measured. *)
let metrics (w : Workload.t) m =
  let own = oks (own_runs m) in
  let preps = oks (List.map (fun r -> r.prep) m.rounds) in
  let median_of name l = if l = [] then [] else [ (name, Stats.median l) ] in
  let median_own name f = median_of name (List.map f own) in
  let scaled name l =
    if l = [] || preps = [] then []
    else [ (name, mean_by Fun.id l *. Calib.reference_s /. mean_by fst preps) ]
  in
  (* observed over unobserved, one ratio per round *)
  let overhead =
    List.filter_map
      (function
        | { own = Ok a; other = Some (Ok b); _ } ->
            Some ((if w.observe then a.wall_s /. b.wall_s else b.wall_s /. a.wall_s) -. 1.0)
        | _ -> None)
      m.rounds
  in
  let counts = match m.observed with Ok o -> o.counts | Error _ -> [] in
  let probe = match m.probes with Some (Ok p) -> p | _ -> [] in
  let shares =
    match (m.observed, own, probe) with
    | Ok o, first :: _, _ :: _ ->
        let c k = List.assoc k o.counts and p k = List.assoc k probe in
        let encode_us =
          let weighted =
            List.map
              (fun (kind, n) -> (float_of_int n, p ("message.encode_us." ^ kind)))
              o.deliveries_by_kind
          in
          sum_by (fun (n, us) -> n *. us) weighted /. sum_by fst weighted
        in
        List.map
          (fun (k, v) -> ("share." ^ k, v))
          (Stats.shares
             ~wall:(median_by (fun r -> r.wall_s) own)
             [
               ("sha256", c "sim.mb_delivered" /. p "crypto.sha256_mb_s");
               ("encode", float_of_int first.encodes *. encode_us /. 1e6);
               ("apply", float_of_int o.closes *. p "ledger.apply_ms" /. 1e3);
               ("bucket", float_of_int o.closes *. p "bucket.add_batch_ms" /. 1e3);
               ("sim", c "sim.events" *. p "sim.step_ns" /. 1e9);
             ])
    | _ -> []
  in
  counts @ probe @ shares
  @ scaled "wall_s" (List.map (fun r -> r.wall_s) own)
  @ scaled "setup_s" (List.concat_map (fun (_, s) -> List.map fst s) preps)
  @ median_own "peak_heap_mb" (fun r -> r.peak_heap_mb)
  @ median_own "host.wall_raw_s" (fun r -> r.wall_s)
  @ median_of "host.reference_ms" (List.map (fun (t, _) -> 1e3 *. t) preps)
  @ median_of "bucket.of_state_ms" (List.concat_map (fun (_, s) -> List.map (fun (_, t) -> 1e3 *. t) s) preps)
  @ median_own "ledger.close_cpu_ms_p50" (fun r -> r.close_cpu_ms_p50)
  @ median_own "gc.minor_mwords" (fun r -> r.minor_mwords)
  @ median_own "gc.major_collections" (fun r -> float_of_int r.major_collections)
  @ median_of "obs.overhead" overhead
  @ (match m.observed with Ok o -> [ ("obs.report_ms", o.report_ms) ] | Error _ -> [])
  @ match own with first :: _ -> [ ("message.encodes", float_of_int first.encodes) ] | [] -> []

let print_table (w : Workload.t) ~seed ~trace m shown =
  Printf.printf "== %s (seed %d)\n" w.name seed;
  let show what runs =
    if runs <> [] then
      Printf.printf "  %s: %s\n" what (String.concat " " (List.map (Printf.sprintf "%.3f") runs))
  in
  show "timed runs, host s" (List.map (fun r -> r.wall_s) (oks (own_runs m)));
  show "paired runs, host s" (List.map (fun r -> r.wall_s) (oks (other_runs m)));
  show "reference job, ms" (List.map (fun (t, _) -> 1e3 *. t) (oks (List.map (fun r -> r.prep) m.rounds)));
  List.iter
    (fun (k, v) -> Printf.printf "  %-30s %16.6f %s\n" k v (List.assoc k (end_to_end @ per_layer)))
    shown;
  if trace then begin
    let spans = Span.take () in
    Printf.printf "  spans (host time):%40s %10s %10s\n" "count" "total ms" "self ms";
    let names = List.sort_uniq compare (List.map (fun (s : Span.t) -> s.name) spans) in
    List.iter
      (fun name ->
        let mine = List.filter (fun (s : Span.t) -> s.name = name) spans in
        Printf.printf "    %-45s %6d %10.1f %10.1f\n" name (List.length mine)
          (1e3 *. sum_by Span.duration mine)
          (1e3 *. sum_by (Span.self_time spans) mine))
      names
  end

let bench w ~seed ~seconds ~trace ~counts_dir =
  let m = measure w ~seed ~seconds ~trace in
  let checks = checks w ~seed ~counts_dir m in
  List.iter
    (fun (what, ps) -> List.iter (Printf.eprintf "%s: %s: %s\n%!" w.Workload.name what) ps)
    checks;
  let available = metrics w m in
  let pick names =
    List.filter_map (fun (k, _) -> Option.map (fun v -> (k, v)) (List.assoc_opt k available)) names
  in
  print_table w ~seed ~trace m (pick (if trace then end_to_end @ per_layer else end_to_end @ payment));
  let failed = List.length (List.filter (fun (_, ps) -> ps <> []) checks) in
  {
    correct = failed = 0;
    attempted = List.length checks;
    failed;
    metrics = pick (if trace then per_layer else end_to_end);
  }

let json_result ~prefix results =
  let metrics =
    List.concat_map
      (fun (w, r) ->
        List.filter_map
          (fun (k, v) ->
            if Float.is_finite v then
              Some
                (Printf.sprintf {|"%s%s": {"value": %.17g, "unit": "%s"}|} (prefix w) k v
                   (List.assoc k (end_to_end @ per_layer)))
            else None)
          r.metrics)
      results
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (List.for_all (fun (_, r) -> r.correct) results)
    (List.fold_left (fun a (_, r) -> a + r.attempted) 0 results)
    (List.fold_left (fun a (_, r) -> a + r.failed) 0 results)
    (String.concat ", " metrics)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--child" then serve_child ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let counts_dir = ref None in
  let usage = "main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--counts-dir DIR]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  tiered-flood, payments-4, crash-recovery or all");
      ("--seed", Arg.Set_int seed, "N  seed of the generated load and link latencies");
      ("--seconds", Arg.Set_float seconds, "S  host seconds of timed runs (at least two runs)");
      ("--trace", Arg.Set_int trace, "0|1  1 adds the traced run, probes and per-layer metrics");
      ("--counts-dir", Arg.String (fun d -> counts_dir := Some d), "DIR  compare counts across invocations");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let chosen =
    if !workload = "all" then Workload.all else Option.to_list (Workload.find !workload)
  in
  if chosen = [] || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let results =
    List.map
      (fun w ->
        (w.Workload.name, bench w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~counts_dir:!counts_dir))
      chosen
  in
  print_endline
    (json_result ~prefix:(if !workload = "all" then fun w -> w ^ "/" else fun _ -> "") results)
