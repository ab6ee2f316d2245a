(* p2psim: command-line front end to the stability library.

   Subcommands:
     classify  - Theorem 1 verdict for a parameter set
     simulate  - run the exact Markov (or agent-level) simulator
     fluid     - integrate the mean-field limit (--hybrid for CTMC handoff)
     region    - sweep lambda x us and print the phase diagram
     overlay   - simulate on a sparse random overlay topology
     hetero    - heterogeneous peer classes (heuristic region + simulation)
     coded     - Theorem 15 thresholds and coded-swarm simulation
     drift     - Lyapunov drift scan (the Foster-Lyapunov certificate)
     exact     - exact stationary distribution on a truncated state space
     reachable - minimal closed set of states under a selection policy
     borderline- the mu = infinity watched process of Section VIII-D
     campaign  - checkpointed sweeps over a crash-safe result store *)

open Cmdliner
module Pieceset = P2p_pieceset.Pieceset
module Runner = P2p_runner.Runner
module Welford = P2p_stats.Welford
module Probe = P2p_obs.Probe
module Trace = P2p_obs.Trace
module Series = P2p_obs.Series
module Profile = P2p_obs.Profile
module Hist = P2p_obs.Hist
module Recorder = P2p_obs.Recorder
module Monitor = P2p_obs.Monitor
module Progress = P2p_obs.Progress
module Json = P2p_obs.Json
module Campaign = P2p_campaign.Campaign
module Campaign_spec = P2p_campaign.Spec
module Store = P2p_campaign.Store
open P2p_core

(* ---- shared argument parsing ---- *)

let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline ("p2psim: " ^ m); exit 2) fmt

(* Build a model from parsed flags; invalid parameters are the user's
   error, reported as a usage error (exit 2) rather than an uncaught
   [Invalid_argument]. *)
let valid_model f = try f () with Invalid_argument m -> usage_error "%s" m

(* Arrival streams parse straight to (Pieceset.t, rate) through a Cmdliner
   conv, so a typo produces a usage error naming the offending token plus
   the expected shape — not an uncaught Failure with a backtrace. *)
let arrival_conv =
  let hint = "expected PIECES=RATE, e.g. 'none=1.0' or '1,3=0.25'" in
  let parse spec =
    let fail fmt = Printf.ksprintf (fun m -> Error (`Msg (m ^ "; " ^ hint))) fmt in
    match String.split_on_char '=' spec with
    | [ pieces; rate ] -> begin
        match float_of_string_opt rate with
        | None -> fail "bad rate %S in arrival spec %S" rate spec
        | Some rate ->
            let rec pieces_of acc = function
              | [] -> Ok (Pieceset.of_list acc, rate)
              | s :: rest -> (
                  match int_of_string_opt (String.trim s) with
                  | Some i when i >= 1 -> pieces_of ((i - 1) :: acc) rest
                  | Some _ | None -> fail "bad piece %S in arrival spec %S" s spec)
            in
            if pieces = "none" || pieces = "" then Ok (Pieceset.empty, rate)
            else pieces_of [] (String.split_on_char ',' pieces)
      end
    | _ -> fail "arrival spec %S is not of the form PIECES=RATE" spec
  in
  let pp fmt (set, rate) =
    Format.fprintf fmt "%s=%g" (if Pieceset.is_empty set then "none" else Pieceset.to_string set) rate
  in
  Arg.conv (parse, pp)

let arrivals_arg =
  let doc =
    "Arrival stream $(docv) as PIECES=RATE, repeatable; PIECES is a comma-separated list of \
     1-based piece numbers, or 'none' for empty-handed peers. Example: --arrive none=1.0 \
     --arrive 1,2=0.3"
  in
  Arg.(value & opt_all arrival_conv [ (Pieceset.empty, 1.0) ]
       & info [ "arrive"; "a" ] ~docv:"SPEC" ~doc)

let k_arg = Arg.(value & opt int 4 & info [ "k"; "num-pieces" ] ~docv:"K" ~doc:"Number of pieces.")
let us_arg = Arg.(value & opt float 1.0 & info [ "us" ] ~docv:"RATE" ~doc:"Fixed seed contact rate U_s.")
let mu_arg = Arg.(value & opt float 1.0 & info [ "mu" ] ~docv:"RATE" ~doc:"Peer contact rate mu.")

let gamma_arg =
  let doc = "Peer-seed departure rate gamma; 'inf' means peers leave on completion." in
  Arg.(value & opt float infinity & info [ "gamma" ] ~docv:"RATE" ~doc)

(* A float flag that accepts [v] when [ok v]; anything else is a usage
   error reading "WHAT must be SHAPE, got S". *)
let float_conv ~ok what shape =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "%s must be %s, got %S" what shape s))
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let finite_positive v = Float.is_finite v && v > 0.0

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc:"PRNG seed.")

let jobs_arg =
  let doc =
    "Domains for replication sweeps; 0 = one per recommended core. Results are identical for \
     every value of $(docv) (deterministic seeding + ordered merge)."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"D" ~doc)

let resolve_jobs jobs = if jobs <= 0 then Runner.default_jobs () else jobs

let shards_arg =
  let doc =
    "With --agent, partition the swarm itself into $(docv) shards (by arrival-class hash) and \
     run their event loops concurrently, resolving cross-shard contacts through barrier \
     messages (DESIGN §17). 1 = the classic single-loop simulator, bit-identical to previous \
     releases. For a fixed shard count the run is deterministic — repeated invocations and \
     every --jobs value produce identical output — but trajectories differ between shard \
     counts. Requires --reps 1. The Markov simulator runs unsharded only."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"S" ~doc)

let sync_every_arg =
  let c = float_conv ~ok:finite_positive "sync window" "a finite positive time" in
  Arg.(value & opt (some c) None
       & info [ "sync-every" ] ~docv:"T"
           ~doc:"Simulation-time width of the shard synchronisation window (default \
                 horizon/200). Smaller windows tighten cross-shard rate coupling at the cost \
                 of more barriers; the value is part of the deterministic-run key, so hold it \
                 fixed when comparing runs.")

let reps_arg ~default =
  Arg.(value & opt int default & info [ "reps"; "r" ] ~docv:"R"
       ~doc:"Independent replications (replication i uses the RNG stream (seed, i)).")

let horizon_arg =
  Arg.(value & opt float 1000.0 & info [ "horizon"; "t" ] ~docv:"TIME" ~doc:"Simulation horizon.")

let make_params k us mu gamma arrivals =
  valid_model (fun () -> Params.make ~k ~us ~mu ~gamma ~arrivals)

let params_term = Term.(const make_params $ k_arg $ us_arg $ mu_arg $ gamma_arg $ arrivals_arg)

(* ---- fault injection flags (shared by simulate) ---- *)

let outage_arg =
  let doc =
    "Take the fixed seed through alternating Exp(UP)/Exp(DOWN) up and down periods (mean \
     durations). While down the seed uploads nothing; Theorem 1 at the effective rate U_s \
     x UP/(UP+DOWN) predicts where the missing piece syndrome sets in."
  in
  let parse s =
    let bad () =
      Error
        (`Msg
           (Printf.sprintf "seed outage %S is not UP,DOWN (two positive mean durations, e.g. '50,10')" s))
    in
    match String.split_on_char ',' s with
    | [ up; down ] -> (
        match (float_of_string_opt up, float_of_string_opt down) with
        | Some u, Some d when u > 0.0 && d > 0.0 && Float.is_finite u && Float.is_finite d ->
            Ok (u, d)
        | _ -> bad ())
    | _ -> bad ()
  in
  let outage_c = Arg.conv (parse, fun fmt (u, d) -> Format.fprintf fmt "%g,%g" u d) in
  Arg.(value & opt (some outage_c) None & info [ "seed-outage" ] ~docv:"UP,DOWN" ~doc)

let abort_rate_arg =
  let c =
    float_conv ~ok:(fun v -> Float.is_finite v && v >= 0.0) "abort rate"
      "a finite non-negative number"
  in
  Arg.(value & opt c 0.0
       & info [ "abort-rate" ] ~docv:"RATE"
           ~doc:"Churn: each unfinished peer aborts (leaves without the file) at rate $(docv).")

let loss_prob_arg =
  let prob_c = float_conv ~ok:(fun p -> p >= 0.0 && p <= 1.0) "loss probability" "in [0, 1]" in
  Arg.(value & opt prob_c 0.0
       & info [ "loss-prob" ] ~docv:"P"
           ~doc:"Each would-be upload is lost (no piece transferred) with probability $(docv).")

let faults_term =
  let make outage abort_rate loss_prob = Faults.make ?outage ~abort_rate ~loss_prob () in
  Term.(const make $ outage_arg $ abort_rate_arg $ loss_prob_arg)

let on_error_arg =
  let doc =
    "What to do when a replication raises: 'abort' (default; re-raise with backtrace), 'skip' \
     (drop it, keep the sweep), or 'retry:N' (up to N fresh deterministic streams, then skip)."
  in
  let parse s =
    match String.lowercase_ascii s with
    | "abort" -> Ok Runner.Abort
    | "skip" -> Ok Runner.Skip
    | s when String.length s > 6 && String.sub s 0 6 = "retry:" -> (
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some n when n >= 1 -> Ok (Runner.Retry n)
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "retry count in %S must be a positive integer" s)))
    | _ -> Error (`Msg (Printf.sprintf "unknown policy %S (expected abort, skip, or retry:N)" s))
  in
  let pp fmt = function
    | Runner.Abort -> Format.pp_print_string fmt "abort"
    | Runner.Skip -> Format.pp_print_string fmt "skip"
    | Runner.Retry n -> Format.fprintf fmt "retry:%d" n
  in
  Arg.(value & opt (conv (parse, pp)) Runner.Abort & info [ "on-error" ] ~docv:"POLICY" ~doc)

let max_events_arg =
  Arg.(value & opt (some int) None
       & info [ "max-events" ] ~docv:"N"
           ~doc:"Per-replication event budget; a run that exhausts it is frozen at its current \
                 state and counted as partial.")

let timeout_conv what = float_conv ~ok:finite_positive what "a finite positive number of seconds"

let rep_timeout_arg =
  Arg.(value & opt (some (timeout_conv "replication timeout")) None
       & info [ "rep-timeout" ] ~docv:"SECS"
           ~doc:"Per-replication wall-clock watchdog: an attempt running longer than $(docv) \
                 seconds is recorded as a failure and handled by --on-error (a retried attempt \
                 gets a fresh deterministic stream and a fresh watchdog). Wall-clock limits are \
                 scheduling-dependent; pick a wide margin if results must be reproducible.")

(* ---- telemetry flags (simulate / region) ---- *)

type telemetry = {
  trace : string option;
  probe_interval : float option;
  metrics_out : string option;
  progress : bool;
  profile : bool;
  flight_recorder : string option;
  monitor : bool;
  alerts_out : string option;
  hist_out : string option;
}

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a structured event trace of the run to $(docv): Chrome trace-event JSON \
                 when the name ends in .json (open in chrome://tracing or Perfetto), JSONL \
                 otherwise. Timestamps are simulation time. Requires --reps 1.")

let probe_interval_arg =
  let c = float_conv ~ok:finite_positive "probe interval" "a finite positive number" in
  Arg.(value & opt (some c) None
       & info [ "probe-interval" ] ~docv:"T"
           ~doc:"Sample the swarm (population, peer seeds, one-club size, per-piece copies) \
                 every $(docv) units of simulation time and print the time-averaged summary. \
                 Simulation time, never wall clock: the series is reproducible bit for bit.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write the probe sample series as JSONL to $(docv) (render it later with \
                 'p2psim report'). Implies probing (default interval horizon/200 unless \
                 --probe-interval is given). Requires --reps 1.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Live progress meter on stderr for replication sweeps: replications done, \
                 aggregate events/s, ETA.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Wall-clock phase profile of the simulator (setup / event loop / finalisation), \
                 printed after the run.")

let flight_recorder_arg =
  Arg.(value & opt (some string) None
       & info [ "flight-recorder" ] ~docv:"FILE"
           ~doc:"Keep the last few thousand engine events in a preallocated ring buffer and dump \
                 them to $(docv) when the run ends, crashes, or is signalled (SIGINT/SIGTERM); \
                 the ring is also republished atomically every few thousand events, so even a \
                 SIGKILL leaves the last complete snapshot behind. Chrome trace JSON when the \
                 name ends in .json, JSONL otherwise. Requires --reps 1.")

let monitor_arg =
  Arg.(value & flag
       & info [ "monitor" ]
           ~doc:"Watch the probe samples for the missing piece syndrome as the run executes: a \
                 structured alert fires on stderr when the rarest-piece replica count pins near \
                 one while the one-club drifts linearly upward (the Theorem 1 instability \
                 signature). Implies probing (default interval horizon/200). Detection runs on \
                 simulation time only, so monitored runs are bit-identical to bare runs. \
                 Requires --reps 1.")

let alerts_out_arg =
  Arg.(value & opt (some string) None
       & info [ "alerts-out" ] ~docv:"FILE"
           ~doc:"Write the monitor's detector timeline (alerts and syndrome episodes) as JSON \
                 to $(docv). Implies --monitor.")

let hist_out_arg =
  Arg.(value & opt (some string) None
       & info [ "hist-out" ] ~docv:"FILE"
           ~doc:"Record per-event-type counts and sampled per-phase wall-clock cost into \
                 log2-bucket histograms and write them to $(docv) (render with 'p2psim \
                 report'). Requires --reps 1.")

let telemetry_term =
  let make trace probe_interval metrics_out progress profile flight_recorder monitor alerts_out
      hist_out =
    { trace; probe_interval; metrics_out; progress; profile; flight_recorder; monitor;
      alerts_out; hist_out }
  in
  Term.(const make $ trace_arg $ probe_interval_arg $ metrics_out_arg $ progress_arg
        $ profile_arg $ flight_recorder_arg $ monitor_arg $ alerts_out_arg $ hist_out_arg)

(* ---- the flag family every stochastic subcommand shares ---- *)

type run_opts = {
  horizon : float;
  seed : int;
  reps : int;
  jobs : int;
  faults : Faults.t;
  on_error : Runner.on_error;
  rep_timeout : float option;
  max_events : int option;
  tel : telemetry;
}

let run_opts_term =
  let make horizon seed reps jobs faults on_error rep_timeout max_events tel =
    { horizon; seed; reps; jobs; faults; on_error; rep_timeout; max_events; tel }
  in
  Term.(const make $ horizon_arg $ seed_arg $ reps_arg ~default:1 $ jobs_arg $ faults_term
        $ on_error_arg $ rep_timeout_arg $ max_events_arg $ telemetry_term)

(* One plain run, for subcommands that take only a horizon and a seed. *)
let plain_run_opts ~horizon ~seed =
  {
    horizon; seed; reps = 1; jobs = 1; faults = Faults.none; on_error = Runner.Abort;
    rep_timeout = None; max_events = None;
    tel =
      { trace = None; probe_interval = None; metrics_out = None; progress = false;
        profile = false; flight_recorder = None; monitor = false; alerts_out = None;
        hist_out = None };
  }

(* Build the probe for a single run, hand it to [f], then flush the
   attached sinks (metrics file, trace file, flight dump, histogram
   file, monitor timeline, profile report).  The flight recorder is the
   crash-path sink: it dumps from the SIGINT/SIGTERM handlers and from
   the exception path, not just on clean exit, and keeps a rate-limited
   auto-snapshot on disk so even SIGKILL leaves the last complete ring
   behind. *)
let with_single_run_probe tel ~k ~horizon f =
  let tracer = Option.map Trace.to_file tel.trace in
  let monitoring = tel.monitor || tel.alerts_out <> None in
  let series =
    if tel.probe_interval <> None || tel.metrics_out <> None then Some (Series.create ~k)
    else None
  in
  let monitor =
    if monitoring then
      Some
        (Monitor.create
           ~on_alert:(fun a -> Format.eprintf "p2psim: %a@." Monitor.pp_alert a)
           ())
    else None
  in
  let recorder =
    match tel.flight_recorder with
    | None -> Recorder.disabled
    | Some file ->
        let r = Recorder.create () in
        Recorder.auto_snapshot r ~every:(Recorder.capacity r) ~min_gap_s:1.0
          ~code_name:Probe.code_name file;
        r
  in
  let hists = match tel.hist_out with None -> Hist.disabled_group | Some _ -> Hist.group () in
  let prof = if tel.profile then Profile.create () else Profile.disabled in
  let bare =
    tracer = None && series = None && monitor = None && not tel.profile
    && not (Recorder.live recorder)
    && not (Hist.enabled hists)
  in
  let probe =
    if bare then Probe.none
    else
      let on_sample =
        if series = None && monitor = None then None
        else
          Some
            (fun (s : Probe.sample) ->
              Option.iter (fun sr -> Series.record sr s) series;
              Option.iter
                (fun m ->
                  Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
                    ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
                monitor)
      in
      Probe.make
        ?interval:
          (match tel.probe_interval with
          | Some dt -> Some dt
          | None ->
              if series <> None || monitor <> None then Some (horizon /. 200.0) else None)
        ?on_event:(Option.map Probe.trace_hook tracer)
        ?on_sample ~profile:prof ~recorder ~hists ()
  in
  let dump_recorder ~out =
    match tel.flight_recorder with
    | Some file when Recorder.live recorder ->
        Recorder.dump recorder ~code_name:Probe.code_name file;
        Printf.fprintf out "flight recorder: %d events kept (%d overwritten) -> %s\n%!"
          (min (Recorder.recorded recorder) (Recorder.capacity recorder))
          (Recorder.dropped recorder) file
    | _ -> ()
  in
  let result =
    match tel.flight_recorder with
    | None -> f probe
    | Some _ ->
        (* Dump the ring on the way out of every abnormal exit the
           process can still observe; SIGKILL is covered by the
           auto-snapshot above. *)
        let on_signal code _ =
          dump_recorder ~out:stderr;
          exit code
        in
        let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (on_signal 130)) in
        let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (on_signal 143)) in
        let restore () =
          Sys.set_signal Sys.sigint prev_int;
          Sys.set_signal Sys.sigterm prev_term
        in
        (try f probe
         with e ->
           dump_recorder ~out:stderr;
           restore ();
           raise e)
        |> fun r ->
        restore ();
        r
  in
  dump_recorder ~out:stdout;
  Option.iter
    (fun m ->
      let n_alerts = List.length (Monitor.alerts m) in
      Report.kv
        [
          ("monitor samples", string_of_int (Monitor.samples_seen m));
          ("missing-piece alerts", string_of_int n_alerts);
          ("syndrome episodes", string_of_int (List.length (Monitor.episodes m)));
          ( "currently alerting",
            if Monitor.alerting m then "yes (syndrome open at horizon)" else "no" );
        ];
      match tel.alerts_out with
      | None -> ()
      | Some file ->
          Json.write_file_atomic file (fun oc ->
              Json.to_channel oc (Monitor.to_json m);
              output_char oc '\n');
          Printf.printf "wrote detector timeline (%d alerts) to %s\n" n_alerts file)
    monitor;
  (match tel.hist_out with
  | None -> ()
  | Some file ->
      Hist.write_group_file hists file;
      Printf.printf "wrote %d histograms to %s\n" (List.length (Hist.hists hists)) file);
  Option.iter
    (fun s ->
      Series.close s ~time:horizon;
      Report.kv
        [
          ("probe samples", string_of_int (Series.count s));
          ("time-avg one-club size", Report.fmt_float (Series.avg_one_club s));
          ("time-avg rarest-piece copies", Report.fmt_float (Series.avg_rarest_count s));
          ("time-avg peer seeds", Report.fmt_float (Series.avg_seeds s));
        ];
      match tel.metrics_out with
      | None -> ()
      | Some file ->
          Json.write_file_atomic file (fun oc -> Series.write s oc);
          Printf.printf "wrote %d probe samples to %s\n" (Series.count s) file)
    series;
  Option.iter
    (fun t ->
      let n = Trace.events_written t in
      Trace.close t;
      Printf.printf "wrote %d trace events to %s\n" n (Option.get tel.trace))
    tracer;
  if tel.profile then Format.printf "%a@." Profile.pp prof;
  result

(* Degraded-seed commentary shared by the simulate paths: what Theorem 1
   predicts once U_s is scaled by the outage duty cycle. *)
let report_effective_verdict (params : Params.t) faults =
  match (faults : Faults.t).outage with
  | None -> ()
  | Some _ ->
      let uf = Faults.uptime_fraction faults in
      Printf.printf "seed uptime fraction %.4f: effective U_s = %s; Theorem 1 there: %s\n"
        uf
        (Report.fmt_float (Faults.effective_us faults ~us:params.us))
        (Stability.verdict_to_string (Stability.classify_effective params ~uptime_fraction:uf))

let report_failures (timing : Runner.timing) =
  if timing.failures <> [] then begin
    Printf.printf "failed replications (excluded from aggregates):\n";
    List.iter (fun f -> Format.printf "  @[<v>%a@]@." Runner.pp_failure f) timing.failures
  end;
  if timing.interrupted then
    print_endline "interrupted by SIGINT: aggregates cover completed chunks only"

let truncation_warning truncated =
  if truncated then
    print_endline "WARNING: max_events budget exhausted before the horizon; \
                   time-based statistics are biased"

(* Trajectory CSVs go through write-tmp-then-rename like every other
   emitter: a crash mid-write leaves the previous file (or nothing),
   never a torn one. *)
let write_samples_csv file samples =
  Json.write_file_atomic file (fun oc ->
      output_string oc "time,population\n";
      Array.iter (fun (t, n) -> Printf.fprintf oc "%g,%d\n" t n) samples);
  Printf.printf "wrote %s\n" file

(* Telemetry a sharded run can carry: per-shard instruments that merge
   (or file-split) at the join.  Everything that assumes one global event
   stream — traces, probe series, the syndrome monitor, the phase
   profile — is rejected rather than silently recording one shard. *)
let reject_sharded_telemetry tel =
  if tel.trace <> None then
    usage_error "--trace requires --shards 1 (per-shard traces would interleave)";
  if tel.metrics_out <> None || tel.probe_interval <> None then
    usage_error "--metrics-out/--probe-interval require --shards 1 (one probe series per run)";
  if tel.monitor || tel.alerts_out <> None then
    usage_error "--monitor requires --shards 1 (the detector watches one global series)";
  if tel.profile then usage_error "--profile requires --shards 1"

(* FILE.shardI with the extension preserved (flight.json ->
   flight.shard0.json), so format sniffing on the suffix still works. *)
let shard_file file i =
  match String.rindex_opt file '.' with
  | Some dot when dot > 0 && not (String.contains (String.sub file dot (String.length file - dot)) '/')
    ->
      Printf.sprintf "%s.shard%d%s" (String.sub file 0 dot) i
        (String.sub file dot (String.length file - dot))
  | _ -> Printf.sprintf "%s.shard%d" file i

let reject_single_run_telemetry tel =
  if tel.trace <> None then
    usage_error "--trace requires --reps 1 (per-replication traces would interleave)";
  if tel.metrics_out <> None then
    usage_error "--metrics-out requires --reps 1 (one probe series per run)";
  if tel.flight_recorder <> None then
    usage_error "--flight-recorder requires --reps 1 (one ring per run; campaigns have their own)";
  if tel.monitor || tel.alerts_out <> None then
    usage_error "--monitor requires --reps 1 (one detector per run)";
  if tel.hist_out <> None then
    usage_error "--hist-out requires --reps 1 (per-replication histograms would interleave)"

(* ---- stochastic backends: each described once, run by one set of entry points ---- *)

(* One finished run, as every run mode reports it. *)
type outcome = {
  events : int;
  truncated : bool;
  samples : (float * int) array;
  values : float array;  (** replication metrics, time-avg N first *)
  rows : (string * string) list;  (** the single-run report *)
  detail : unit -> unit;  (** printed after [rows]: verdict line, per-class table *)
}

(* A backend with its flags applied: how to run it once, its replication
   metric names, and the commentary printed after its report or
   replication table.  [until] stops a run early (replications pass the
   wall-budget poll, single runs [None]); a backend without the hook
   ignores it. *)
type backend = {
  metrics : string list;
  run : until:(time:float -> n:int -> bool) option -> probe:Probe.t -> rng:P2p_prng.Rng.t -> outcome;
  commentary : unit -> unit;
}

(* The agent backend's sharded run: its outcome and the sharding rows. *)
type sharded_runner =
  probes:(int -> Probe.t) -> shards:int -> jobs:int -> seed:int -> outcome * (string * string) list

let sharding_rows ~windows ~messages ~events ~final_n =
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  [
    ("sync windows", string_of_int windows);
    ("cross-shard messages", string_of_int messages);
    ("per-shard events", ints events);
    ("per-shard final N", ints final_n);
  ]

(* Every backend's metrics end with the growth rate and, when faults are
   injected, the fault counters; its report rows end with the fault
   rows. *)
let metric_names faults names =
  names @ ("growth dN/dt"
          :: (if Faults.is_none faults then []
              else [ "outage time"; "aborted peers"; "lost transfers" ]))

let outcome ?(detail = ignore) ~faults ~events ~truncated ~samples ~fault_counts values rows =
  let outage_time, aborted, lost = fault_counts in
  let faulty = not (Faults.is_none faults) in
  {
    events;
    truncated;
    samples;
    values =
      Array.concat
        [
          values;
          [| (Classify.of_samples samples).growth_rate |];
          (if faulty then [| outage_time; float_of_int aborted; float_of_int lost |] else [||]);
        ];
    rows =
      (rows
      @
      if faulty then
        [
          ("seed outage time", Report.fmt_float outage_time);
          ("aborted peers", string_of_int aborted);
          ("lost transfers", string_of_int lost);
        ]
      else []);
    detail;
  }

let verdict_of ~truncated samples = (Classify.of_run ~truncated samples).verdict

let verdict_line ~truncated samples () =
  let r = Classify.of_run ~truncated samples in
  Printf.printf "empirical verdict: %s (growth %s/t)\n"
    (Classify.verdict_to_string r.verdict)
    (Report.fmt_float r.growth_rate)

(* The rows and metrics [simulate] reports for either swarm backend. *)
let swarm_metrics = [ "time-avg N"; "final N"; "transfers"; "departures" ]

let swarm_rows ~events ~arrivals ~transfers ~departures ~time_avg_n ~max_n ~final_n =
  [
    ("events", string_of_int events);
    ("arrivals", string_of_int arrivals);
    ("transfers", string_of_int transfers);
    ("departures", string_of_int departures);
    ("time-avg N", Report.fmt_float time_avg_n);
    ("max N", string_of_int max_n);
    ("final N", string_of_int final_n);
  ]

let markov_backend (config : Sim_markov.config) { max_events; horizon; _ } =
  let faults = config.faults in
  let outcome (s : Sim_markov.stats) =
    outcome ~faults ~events:s.events ~truncated:s.truncated ~samples:s.samples
      ~fault_counts:(s.outage_time, s.aborted_peers, s.lost_transfers)
      ~detail:(verdict_line ~truncated:s.truncated s.samples)
      [| s.time_avg_n; float_of_int s.final_n; float_of_int s.transfers;
         float_of_int s.departures |]
      (swarm_rows ~events:s.events ~arrivals:s.arrivals ~transfers:s.transfers
         ~departures:s.departures ~time_avg_n:s.time_avg_n ~max_n:s.max_n ~final_n:s.final_n
      @ [ ("visits to empty", string_of_int s.visits_to_empty) ])
  in
  {
    metrics = metric_names faults swarm_metrics;
    run =
      (fun ~until ~probe ~rng ->
        let s, _ = Sim_markov.run ~probe ?max_events ?until ~rng config ~horizon in
        if s.stopped then raise Runner.Rep_timeout;
        outcome s);
    commentary = (fun () -> report_effective_verdict config.params faults);
  }

(* One class, or a labelled class table: [labels] adds the per-class
   table to the report.  Returns the backend and its sharded runner. *)
let agent_backend ?sync_every ?(labels = []) (config : Sim_agent.config)
    { max_events; horizon; _ } =
  let faults = config.faults in
  let per_class (s : Sim_agent.stats) () =
    Report.subsection "per class";
    Report.table
      ~header:[ "class"; "mean N"; "mean sojourn" ]
      (List.mapi
         (fun i label ->
           [ label; Report.fmt_float s.class_mean_n.(i); Report.fmt_float s.class_mean_sojourn.(i) ])
         labels)
  in
  let outcome (s : Sim_agent.stats) =
    outcome ~faults ~events:s.events ~truncated:s.truncated ~samples:s.samples
      ~fault_counts:(s.outage_time, s.aborted_peers, s.lost_transfers)
      ~detail:(fun () ->
        verdict_line ~truncated:s.truncated s.samples ();
        if labels <> [] then per_class s ())
      [| s.time_avg_n; float_of_int s.final_n; float_of_int s.transfers;
         float_of_int s.departures |]
      (swarm_rows ~events:s.events ~arrivals:s.arrivals ~transfers:s.transfers
         ~departures:s.departures ~time_avg_n:s.time_avg_n ~max_n:s.max_n ~final_n:s.final_n
      @ [ ("mean sojourn", Report.fmt_float s.mean_sojourn);
          ("one-club fraction", Report.fmt_float s.one_club_time_fraction) ])
  in
  ( {
      metrics = metric_names faults swarm_metrics;
      run =
        (fun ~until:_ ~probe ~rng ->
          outcome (fst (Sim_agent.run ~probe ?max_events ~rng config ~horizon)));
      commentary = (fun () -> report_effective_verdict config.params faults);
    },
    fun ~probes ~shards ~jobs ~seed ->
      let s, _, (r : Sim_agent.shard_report) =
        Sim_agent.run_sharded_seeded ~probes ?sync_every ?max_events ~jobs ~shards ~seed config
          ~horizon
      in
      ( outcome s,
        sharding_rows ~windows:r.windows ~messages:r.cross_messages ~events:r.shard_events
          ~final_n:r.shard_final_n ) )

let network_backend (config : Sim_network.config) { max_events; horizon; _ } =
  let faults = config.faults in
  let outcome (s : Sim_network.stats) =
    let no_degree = Float.is_nan s.mean_degree_time_avg in
    outcome ~faults ~events:s.events ~truncated:s.truncated ~samples:s.samples
      ~fault_counts:(s.outage_time, s.aborted_peers, s.lost_transfers)
      [| s.time_avg_n; float_of_int s.final_n; float_of_int s.transfers;
         float_of_int s.silent_contacts; (if no_degree then 0.0 else s.mean_degree_time_avg) |]
      [
        ("verdict", Classify.verdict_to_string (verdict_of ~truncated:s.truncated s.samples));
        ("time-avg N", Report.fmt_float s.time_avg_n);
        ("transfers", string_of_int s.transfers);
        ("silent contacts", string_of_int s.silent_contacts);
        ("mean overlay degree", if no_degree then "-" else Report.fmt_float s.mean_degree_time_avg);
        ("components at end", string_of_int (List.length s.final_component_sizes));
      ]
  in
  {
    metrics =
      metric_names faults
        [ "time-avg N"; "final N"; "transfers"; "silent contacts"; "mean overlay degree" ];
    run =
      (fun ~until:_ ~probe ~rng ->
        outcome (fst (Sim_network.run ~probe ?max_events ~rng config ~horizon)));
    commentary = (fun () -> report_effective_verdict config.params faults);
  }

let coded_backend (config : Sim_coded.config) { max_events; horizon; _ } =
  let faults = config.faults in
  let outcome (s : Sim_coded.stats) =
    outcome ~faults ~events:s.events ~truncated:s.truncated ~samples:s.samples
      ~fault_counts:(s.outage_time, s.aborted_peers, s.lost_transfers)
      [| s.time_avg_n; float_of_int s.final_n; float_of_int s.useful_transfers;
         float_of_int s.useless_transfers; float_of_int s.completions |]
      [
        ("time-avg N", Report.fmt_float s.time_avg_n);
        ("final N", string_of_int s.final_n);
        ("useful transfers", string_of_int s.useful_transfers);
        ("useless transfers", string_of_int s.useless_transfers);
        ("completions", string_of_int s.completions);
        ("near-complete fraction", Report.fmt_float s.near_complete_fraction);
        ( "empirical verdict",
          Classify.verdict_to_string (verdict_of ~truncated:s.truncated s.samples) );
      ]
  in
  {
    metrics =
      metric_names faults
        [ "time-avg N"; "final N"; "useful transfers"; "useless transfers"; "completions" ];
    run =
      (fun ~until:_ ~probe ~rng -> outcome (Sim_coded.run ~probe ?max_events ~rng config ~horizon));
    commentary = ignore;
  }

(* One run with the single-run telemetry attached. *)
let single_run b { tel; horizon; seed; _ } ~k ~csv =
  let r =
    with_single_run_probe tel ~k ~horizon (fun probe ->
        b.run ~until:None ~probe ~rng:(P2p_prng.Rng.of_seed seed))
  in
  truncation_warning r.truncated;
  Report.kv r.rows;
  r.detail ();
  b.commentary ();
  Option.iter (fun file -> write_samples_csv file r.samples) csv

(* R independent replications, merged Welford per metric, printed as a
   mean ± CI table.  Aggregates are bit-identical for every --jobs value
   (and under skip/retry: surviving replications keep their streams). *)
let replicated b { reps; seed; jobs; on_error; rep_timeout; tel; _ } =
  let progress = if tel.progress then Progress.create ~total:reps () else Progress.silent in
  let summary =
    Runner.run_summary ~jobs:(resolve_jobs jobs) ~on_error ?rep_timeout_s:rep_timeout
      ~handle_sigint:true ~progress
      ~hist:{ Runner.lo = 0.0; hi = 400.0; bins = 20 }
      ~metrics:b.metrics ~master_seed:seed ~replications:reps
      (fun ~rng ~index:_ ->
        let poll = Runner.deadline_poll () in
        let until ~time:_ ~n:_ = poll () in
        let r = b.run ~until:(Some until) ~probe:Probe.none ~rng in
        Progress.add_events progress r.events;
        Runner.rep ~flagged:r.truncated ~obs:[| r.values.(0) |] r.values)
  in
  Printf.printf "%d replications (master seed %d)\n" reps seed;
  Report.table
    ~header:[ "metric"; "mean"; "std err"; "95% CI"; "min"; "max" ]
    (List.map
       (fun (name, w) ->
         let lo, hi = Welford.confidence_interval w ~z:1.96 in
         [
           name;
           Report.fmt_float (Welford.mean w);
           Report.fmt_float (Welford.std_error w);
           Printf.sprintf "[%s, %s]" (Report.fmt_float lo) (Report.fmt_float hi);
           Report.fmt_float (Welford.min_value w);
           Report.fmt_float (Welford.max_value w);
         ])
       summary.stats);
  b.commentary ();
  if summary.partial > 0 then
    Printf.printf "%d replication%s partial (event budget or wall budget exhausted)\n"
      summary.partial
      (if summary.partial = 1 then "" else "s");
  report_failures summary.timing;
  Format.printf "%a@." Runner.pp_timing summary.timing

(* One giant sharded run: per-shard instruments, merged stats, and a
   sharding section proving the partition ran (per-shard event
   counts).  The merged report mirrors the single-run one so sharded
   and classic output stay diffable. *)
let sharded b (run_sharded : sharded_runner) { tel; jobs; seed; _ } ~shards ~csv =
  reject_sharded_telemetry tel;
  let hist_groups =
    Array.init shards (fun _ -> if tel.hist_out <> None then Hist.group () else Hist.disabled_group)
  in
  let recorders =
    Array.init shards (fun _ ->
        match tel.flight_recorder with None -> Recorder.disabled | Some _ -> Recorder.create ())
  in
  let probes i =
    if tel.hist_out = None && tel.flight_recorder = None then Probe.none
    else Probe.make ~recorder:recorders.(i) ~hists:hist_groups.(i) ()
  in
  let jobs = Int.min shards (resolve_jobs jobs) in
  let r, sharding = run_sharded ~probes ~shards ~jobs ~seed in
  truncation_warning r.truncated;
  Report.kv r.rows;
  Report.subsection
    (Printf.sprintf "sharding (%d shards, %d domain%s)" shards jobs (if jobs = 1 then "" else "s"));
  Report.kv sharding;
  (match tel.hist_out with
  | None -> ()
  | Some file ->
      let merged = Hist.group () in
      Array.iter (fun g -> Hist.merge_group_into ~into:merged g) hist_groups;
      Hist.write_group_file merged file;
      Printf.printf "wrote %d histograms (merged over %d shards) to %s\n"
        (List.length (Hist.hists merged)) shards file);
  (match tel.flight_recorder with
  | None -> ()
  | Some file ->
      Array.iteri
        (fun i r ->
          let f = shard_file file i in
          Recorder.dump r ~code_name:Probe.code_name f;
          Printf.printf "flight recorder shard %d: %d events kept (%d overwritten) -> %s\n" i
            (min (Recorder.recorded r) (Recorder.capacity r))
            (Recorder.dropped r) f)
        recorders);
  r.detail ();
  b.commentary ();
  Option.iter (fun file -> write_samples_csv file r.samples) csv

(* Every stochastic subcommand's dispatch: R replications, or one run. *)
let drive b o ~k ?csv () =
  if o.reps > 1 then begin
    reject_single_run_telemetry o.tel;
    replicated b o
  end
  else single_run b o ~k ~csv

(* ---- classify ---- *)

let classify_cmd =
  let run params =
    Format.printf "%a@." Params.pp params;
    let verdict, piece, margin = Stability.classify_detail params in
    Report.kv
      [
        ("verdict (Theorem 1)", Stability.verdict_to_string verdict);
        ("binding piece", string_of_int (piece + 1));
        ("threshold", Report.fmt_float (Stability.threshold params ~piece));
        ("lambda_total", Report.fmt_float (Params.lambda_total params));
        ("margin", Report.fmt_float margin);
        ("max stable lambda (same mix)", Report.fmt_float (Stability.stable_lambda_limit params));
      ];
    Report.subsection "Delta_S for every proper subset S (Eq. 4; all < 0 iff stable)";
    List.iter
      (fun s ->
        Printf.printf "  Delta_%-12s = %s\n" (Pieceset.to_string s)
          (Report.fmt_float (Stability.delta params ~s)))
      (Pieceset.all_proper ~k:params.k)
  in
  Cmd.v (Cmd.info "classify" ~doc:"Theorem 1 verdict for a parameter set")
    Term.(const run $ params_term)

let policy_arg ~default =
  let policy_conv =
    Arg.enum
      [
        ("random", Policy.random_useful);
        ("rarest", Policy.rarest_first);
        ("common", Policy.most_common_first);
        ("sequential", Policy.sequential);
      ]
  in
  Arg.(value & opt policy_conv default & info [ "policy" ] ~docv:"NAME"
       ~doc:"Piece selection: random|rarest|common|sequential.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
       ~doc:"Write the sampled (t, N_t) trajectory as CSV.")

(* ---- simulate ---- *)

let simulate_cmd =
  let agent_arg =
    Arg.(value & flag & info [ "agent" ] ~doc:"Use the agent-level simulator (tracks groups).")
  in
  let run params agent policy csv shards sync_every o =
    let faults = o.faults in
    if shards < 1 then usage_error "--shards must be >= 1";
    if shards > 1 && not agent then
      usage_error "--shards > 1 requires --agent (the Markov simulator runs unsharded)";
    if shards > 1 && o.reps > 1 then
      usage_error "--shards requires --reps 1 (shard one giant run, or replicate unsharded)";
    if agent then begin
      let backend, run_sharded =
        agent_backend ?sync_every { (Sim_agent.default_config params) with policy; faults } o
      in
      if shards > 1 then sharded backend run_sharded o ~shards ~csv
      else drive backend o ~k:params.k ?csv ()
    end
    else
      let backend = markov_backend { (Sim_markov.default_config params) with policy; faults } o in
      drive backend o ~k:params.k ?csv ()
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run the exact stochastic simulation")
    Term.(const run $ params_term $ agent_arg $ policy_arg ~default:Policy.random_useful
          $ csv_arg $ shards_arg $ sync_every_arg $ run_opts_term)

(* ---- fluid ---- *)

let fluid_cmd =
  let init_arg =
    Arg.(value & opt_all arrival_conv []
         & info [ "init" ] ~docv:"SPEC"
             ~doc:"Initial swarm density as PIECES=MASS (same shape as --arrive), repeatable; \
                   e.g. --init none=1e6 starts a million empty-handed peers. Default: empty \
                   swarm. Masses need not be integers in fluid mode; the hybrid rounds them.")
  in
  let rtol_arg =
    Arg.(value & opt float 1e-6 & info [ "rtol" ] ~docv:"TOL"
         ~doc:"Relative tolerance of the adaptive stepper.")
  in
  let atol_arg =
    Arg.(value & opt float 1e-9 & info [ "atol" ] ~docv:"TOL"
         ~doc:"Absolute tolerance floor of the adaptive stepper.")
  in
  let hybrid_arg =
    Arg.(value & flag
         & info [ "hybrid" ]
             ~doc:"Hybrid mode: exact stochastic simulation below --switch-up peers, fluid ODE \
                   above it, handing back at --switch-down. Deterministic switch points; same \
                   seed gives bit-identical runs.")
  in
  let switch_up_arg =
    Arg.(value & opt int 1000 & info [ "switch-up" ] ~docv:"N"
         ~doc:"Hybrid: population at which the stochastic segment hands off to the fluid ODE.")
  in
  let switch_down_arg =
    Arg.(value & opt int 100 & info [ "switch-down" ] ~docv:"N"
         ~doc:"Hybrid: fluid total at which the run hands back to the stochastic simulator.")
  in
  let run params horizon seed init rtol atol hybrid switch_up switch_down csv faults
      max_events tel =
    let control =
      try Ode.control ~rtol ~atol ()
      with Invalid_argument m -> usage_error "%s" m
    in
    let write_csv samples =
      match csv with
      | None -> ()
      | Some file -> write_samples_csv file samples
    in
    let empirical ~truncated samples =
      let r = Classify.of_run ~truncated samples in
      Printf.printf "empirical verdict: %s (growth %s/t)\n"
        (Classify.verdict_to_string r.Classify.verdict)
        (Report.fmt_float r.Classify.growth_rate)
    in
    let fluid_fault_rows (outage_time, aborted_mass, lost_mass) =
      if Faults.is_none faults then []
      else
        [
          ("seed outage time", Report.fmt_float outage_time);
          ("aborted mass", Report.fmt_float aborted_mass);
          ("lost upload mass", Report.fmt_float lost_mass);
        ]
    in
    if hybrid then begin
      if switch_up <= switch_down || switch_down < 0 then
        usage_error "--switch-up (%d) must exceed --switch-down (%d >= 0)" switch_up switch_down;
      let initial =
        List.map
          (fun (set, mass) ->
            let c = int_of_float (Float.round mass) in
            if c < 0 then usage_error "--init mass %g is negative" mass;
            (set, c))
          init
      in
      let markov = { (Sim_markov.default_config params) with initial; faults } in
      let config = { (Sim_hybrid.default_config ~up:switch_up ~down:switch_down markov)
                     with control } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_hybrid.run_seeded ~probe ?max_events ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("events", string_of_int stats.events);
           ("stochastic events", string_of_int stats.markov_events);
           ("fluid steps", string_of_int stats.fluid_steps);
           ("handoffs", string_of_int (List.length stats.switches));
           ("arrivals", Report.fmt_float stats.arrivals);
           ("transfers", Report.fmt_float stats.transfers);
           ("departures", Report.fmt_float stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", Report.fmt_float stats.final_n);
           ("visits to empty", string_of_int stats.visits_to_empty);
         ]
        @ fluid_fault_rows (stats.outage_time, stats.aborted, stats.lost));
      if stats.switches <> [] then begin
        Report.subsection "regime handoffs";
        List.iter
          (fun s ->
            Printf.printf "  t=%-12s %s at N=%s\n"
              (Report.fmt_float s.Sim_hybrid.at)
              (if s.Sim_hybrid.to_fluid then "stochastic -> fluid" else "fluid -> stochastic")
              (Report.fmt_float s.Sim_hybrid.n))
          stats.switches
      end;
      empirical ~truncated:stats.truncated stats.samples;
      report_effective_verdict params faults;
      write_csv stats.samples
    end
    else begin
      let config = { (Sim_fluid.default_config params) with initial = init; faults; control } in
      let stats, _ =
        with_single_run_probe tel ~k:params.k ~horizon (fun probe ->
            Sim_fluid.run_seeded ~probe ~seed config ~horizon)
      in
      truncation_warning stats.truncated;
      Report.kv
        ([
           ("accepted steps", string_of_int stats.steps);
           ("rejected steps", string_of_int stats.rejected_steps);
           ("rhs evaluations", string_of_int stats.rhs_evals);
           ("arrival mass", Report.fmt_float stats.arrivals);
           ("transfer mass", Report.fmt_float stats.transfers);
           ("departure mass", Report.fmt_float stats.departures);
           ("time-avg N", Report.fmt_float stats.time_avg_n);
           ("max N", string_of_int stats.max_n);
           ("final N", Report.fmt_float stats.final_n);
         ]
        @ fluid_fault_rows (stats.outage_time, stats.aborted_mass, stats.lost_mass));
      empirical ~truncated:stats.truncated stats.samples;
      report_effective_verdict params faults;
      write_csv stats.samples
    end
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Integrate the mean-field (fluid) limit, optionally hybridised with the exact \
             stochastic simulator — the million-peer backend")
    Term.(const run $ params_term $ horizon_arg $ seed_arg $ init_arg $ rtol_arg $ atol_arg
          $ hybrid_arg $ switch_up_arg $ switch_down_arg $ csv_arg $ faults_term
          $ max_events_arg $ telemetry_term)

(* ---- region ---- *)

let region_cmd =
  let steps_arg =
    Arg.(value & opt int 9 & info [ "steps" ] ~docv:"N" ~doc:"Grid resolution per axis.")
  in
  let lmax_arg =
    Arg.(value & opt float 3.0 & info [ "lambda-max" ] ~docv:"RATE" ~doc:"Largest lambda.")
  in
  let umax_arg =
    Arg.(value & opt float 3.0 & info [ "us-max" ] ~docv:"RATE" ~doc:"Largest U_s.")
  in
  let run k mu gamma steps lmax umax seed reps jobs horizon on_error want_progress =
    let cell_params i j =
      let lambda = float_of_int (i + 1) /. float_of_int steps *. lmax in
      let us = float_of_int (j + 1) /. float_of_int steps *. umax in
      Params.make ~k ~us ~mu ~gamma ~arrivals:[ (Pieceset.empty, lambda) ]
    in
    let theory_symbol p =
      match Stability.classify p with
      | Stability.Positive_recurrent -> "+"
      | Stability.Transient -> "-"
      | Stability.Borderline -> "0"
    in
    (* With --reps > 0, every cell is simulated reps times; the whole
       (cell x replication) grid is one flat runner sweep.  A replication
       skipped by --on-error (or cut off by Ctrl-C) leaves a None slot and
       simply doesn't vote for its cell. *)
    let sim_symbols =
      if reps <= 0 then None
      else begin
        let cells = steps * steps in
        let progress =
          if want_progress then Progress.create ~total:(cells * reps) () else Progress.silent
        in
        let verdicts, timing =
          Runner.run_map ~jobs:(resolve_jobs jobs) ~on_error ~handle_sigint:true ~progress
            ~master_seed:seed ~replications:(cells * reps) (fun ~rng ~index ->
              let cell = index / reps in
              let p = cell_params (cell / steps) (cell mod steps) in
              let stats, _ = Sim_markov.run ~rng (Sim_markov.default_config p) ~horizon in
              Progress.add_events progress stats.events;
              (Classify.of_stats stats).verdict)
        in
        Format.printf "simulated %d cells x %d reps: %a@." cells reps Runner.pp_timing timing;
        report_failures timing;
        let symbol cell =
          let count v =
            let c = ref 0 in
            for r = 0 to reps - 1 do
              if verdicts.((cell * reps) + r) = Some v then incr c
            done;
            !c
          in
          let stable = count Classify.Appears_stable
          and unstable = count Classify.Appears_unstable in
          if stable > reps / 2 then "+" else if unstable > reps / 2 then "-" else "?"
        in
        Some symbol
      end
    in
    Printf.printf
      "Phase diagram for K=%d mu=%g gamma=%s, empty-handed arrivals.\n\
       Rows: lambda (down = larger). Columns: U_s. '+' stable, '-' transient, '0' borderline.\n\
       %s\n"
      k mu
      (if Float.is_finite gamma then Printf.sprintf "%g" gamma else "inf")
      (match sim_symbols with
      | None -> ""
      | Some _ -> "Cells: theory/simulated majority ('?' = no majority).\n");
    Printf.printf "%8s" "";
    for j = 0 to steps - 1 do
      Printf.printf "%7.2f" (float_of_int (j + 1) /. float_of_int steps *. umax)
    done;
    print_newline ();
    for i = steps - 1 downto 0 do
      let lambda = float_of_int (i + 1) /. float_of_int steps *. lmax in
      Printf.printf "%8.2f" lambda;
      for j = 0 to steps - 1 do
        let t = theory_symbol (cell_params i j) in
        let cell =
          match sim_symbols with
          | None -> t
          | Some symbol -> t ^ "/" ^ symbol ((i * steps) + j)
        in
        Printf.printf "%7s" cell
      done;
      print_newline ()
    done
  in
  Cmd.v (Cmd.info "region" ~doc:"Print the (lambda, U_s) phase diagram")
    Term.(const run $ k_arg $ mu_arg $ gamma_arg $ steps_arg $ lmax_arg $ umax_arg $ seed_arg
          $ reps_arg ~default:0 $ jobs_arg $ horizon_arg $ on_error_arg $ progress_arg)

(* ---- coded ---- *)

let coded_cmd =
  let q_arg =
    let q = Arg.(value & opt int 16 & info [ "q"; "field" ] ~docv:"Q" ~doc:"Field size (prime power).") in
    Term.(const (fun q -> valid_model (fun () -> ignore (P2p_gf.Field.gf q); q)) $ q)
  in
  let f_arg =
    Arg.(value & opt float 0.25 & info [ "f"; "gift-fraction" ] ~docv:"FRAC" ~doc:"Gifted fraction of arrivals.")
  in
  let sim_arg = Arg.(value & flag & info [ "sim" ] ~doc:"Also simulate the coded swarm.") in
  let run k q f us mu gamma sim o =
    let g =
      { Stability.Coded.q; k; us; mu; gamma; lambda0 = 1.0 -. f; lambda1 = f }
    in
    Report.kv
      [
        ("transient if f <", Report.fmt_float (Stability.Coded.transient_f_threshold ~q ~k));
        ( "recurrent if f > (exact)",
          Report.fmt_float (Stability.Coded.recurrent_f_threshold_exact ~q ~k) );
        ("verdict at f", Stability.verdict_to_string (Stability.Coded.classify g));
      ];
    if sim || o.reps > 1 then
      (* In coded traces and probes the subspace dimension plays the
         role of the piece index, so the probe series has k slots. *)
      drive (coded_backend { (Sim_coded.of_gift g) with faults = o.faults } o) o ~k ()
  in
  Cmd.v (Cmd.info "coded" ~doc:"Theorem 15: network coding thresholds and simulation")
    Term.(const run $ k_arg $ q_arg $ f_arg $ us_arg $ mu_arg $ gamma_arg $ sim_arg
          $ run_opts_term)

(* ---- drift ---- *)

let drift_cmd =
  let sizes_arg =
    Arg.(value & opt (list int) [ 100; 1000; 5000 ] & info [ "sizes" ] ~docv:"N,N,..."
         ~doc:"Population sizes to probe.")
  in
  let run params sizes =
    (match Stability.classify params with
    | Stability.Positive_recurrent -> ()
    | v ->
        Printf.printf "note: parameters are %s; negative drift is not expected.\n"
          (Stability.verdict_to_string v));
    let coeffs = Lyapunov.default_coeffs params in
    Printf.printf "coefficients: r=%g d=%g beta=%g alpha=%g p=%g\n" coeffs.r coeffs.d
      coeffs.beta coeffs.alpha coeffs.p_const;
    Report.table
      ~header:[ "state"; "n"; "QW"; "QW/n" ]
      (List.map
         (fun (pt : Lyapunov.scan_point) ->
           [
             pt.state_desc;
             string_of_int pt.n;
             Report.fmt_float pt.drift_value;
             Report.fmt_float pt.drift_per_peer;
           ])
         (Lyapunov.scan_class_one params coeffs ~sizes))
  in
  Cmd.v (Cmd.info "drift" ~doc:"Exact Lyapunov drift scan (Foster-Lyapunov certificate)")
    Term.(const run $ params_term $ sizes_arg)

(* ---- overlay ---- *)

let overlay_cmd =
  let degree_arg =
    let doc = "Overlay attachment degree; 'inf' = fully connected (the paper's model)." in
    let parse s =
      if s = "inf" then Ok None
      else
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok (Some d)
        | Some _ | None -> Error (`Msg "degree must be a positive integer or 'inf'")
    in
    let pp fmt = function
      | None -> Format.pp_print_string fmt "inf"
      | Some d -> Format.pp_print_int fmt d
    in
    Arg.(value & opt (conv (parse, pp)) (Some 4) & info [ "degree" ] ~docv:"D" ~doc)
  in
  let choice_arg =
    let choice_conv =
      Arg.enum
        [
          ("random", Sim_network.Random_useful);
          ("rarest-global", Sim_network.Rarest_global);
          ("rarest-local", Sim_network.Rarest_local);
        ]
    in
    Arg.(value & opt choice_conv Sim_network.Random_useful & info [ "choice" ] ~docv:"NAME"
         ~doc:"Piece choice: random|rarest-global|rarest-local.")
  in
  let run params degree choice o =
    let config = { (Sim_network.default_config params) with degree; choice; faults = o.faults } in
    drive (network_backend config o) o ~k:params.k ()
  in
  Cmd.v
    (Cmd.info "overlay" ~doc:"Simulate the swarm on a sparse random overlay")
    Term.(const run $ params_term $ degree_arg $ choice_arg $ run_opts_term)

(* ---- hetero ---- *)

let hetero_cmd =
  let class_arg =
    let doc =
      "A peer class $(docv) as LABEL=MU,GAMMA,RATE (empty-handed arrivals at RATE; GAMMA may \
       be 'inf'); repeatable."
    in
    Arg.(value
         & opt_all (pair ~sep:'=' string (t3 ~sep:',' float float float)) [ ("all", (1.0, 2.0, 1.0)) ]
         & info [ "class"; "c" ] ~docv:"SPEC" ~doc)
  in
  let hetero_term =
    let make k us specs =
      let classes =
        List.map
          (fun (label, (mu, gamma, rate)) ->
            { Hetero.label; mu; gamma; arrivals = [ (Pieceset.empty, rate) ] })
          specs
      in
      valid_model (fun () -> Hetero.make ~k ~us ~classes)
    in
    Term.(const make $ k_arg $ us_arg $ class_arg)
  in
  let run (h : Hetero.t) horizon seed =
    Report.kv
      [
        ("heuristic verdict", Stability.verdict_to_string (Hetero.classify_heuristic h));
        ("m_bar (seed branching)", Report.fmt_float (Hetero.mean_seed_offspring h ~piece:0));
        ("heuristic threshold", Report.fmt_float (Hetero.threshold h ~piece:0));
        ("lambda_total", Report.fmt_float (Hetero.lambda_total h));
      ];
    let labels = Array.to_list (Array.map (fun (c : Hetero.klass) -> c.label) h.classes) in
    let o = plain_run_opts ~horizon ~seed in
    single_run (fst (agent_backend ~labels (Hetero.agent_config h) o)) o ~k:h.k ~csv:None
  in
  Cmd.v
    (Cmd.info "hetero" ~doc:"Heterogeneous peer classes: heuristic region + simulation")
    Term.(const run $ hetero_term $ horizon_arg $ seed_arg)

(* ---- exact ---- *)

let exact_cmd =
  let nmax_arg =
    Arg.(value & opt int 60 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for truncation.")
  in
  let run params nmax =
    let chain = Truncated.build params ~n_max:nmax in
    Printf.printf "enumerated %d states (n <= %d)\n%!" (Truncated.state_count chain) nmax;
    let pi = Truncated.stationary chain in
    Report.kv
      [
        ("exact E[N]", Report.fmt_float (Truncated.mean_population chain pi));
        ("P(empty)", Report.fmt_float (Truncated.probability_empty chain pi));
        ( "P(N >= n_max/2)",
          Report.fmt_float (Truncated.population_tail chain pi ~at_least:(nmax / 2)) );
        ("mass at cap (bias check)", Report.fmt_float (Truncated.truncation_mass_at_cap chain pi));
      ];
    Report.subsection "stationary mean count per type";
    List.iter
      (fun c ->
        let m = Truncated.mean_type_count chain pi c in
        if m > 1e-9 then
          Printf.printf "  %-12s %s\n" (Pieceset.to_string c) (Report.fmt_float m))
      (Pieceset.all ~k:params.k)
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact stationary distribution on a truncated state space (small K)")
    Term.(const run $ params_term $ nmax_arg)

(* ---- reachable ---- *)

let reachable_cmd =
  let nmax_arg =
    Arg.(value & opt int 4 & info [ "n-max" ] ~docv:"N" ~doc:"Population cap for the search.")
  in
  let run params policy nmax =
    let r = Reachability.explore ~policy params ~n_max:nmax in
    Report.kv
      [
        ("states explored", string_of_int r.states_explored);
        ("truncated", Report.fmt_bool r.truncated);
        ("peer types reachable", string_of_int (List.length r.types_seen));
        ( "prefix collections only (paper's sequential-policy claim)",
          Report.fmt_bool (Reachability.prefix_types_only ~k:params.k r.types_seen) );
        ( "all 2^K types reachable",
          Report.fmt_bool (Reachability.all_types_reachable ~k:params.k r.types_seen) );
      ];
    Printf.printf "types: %s\n"
      (String.concat " " (List.map Pieceset.to_string r.types_seen))
  in
  Cmd.v
    (Cmd.info "reachable"
       ~doc:"Explore the minimal closed set of states under a piece-selection policy")
    Term.(const run $ params_term $ policy_arg ~default:Policy.sequential $ nmax_arg)

(* ---- borderline ---- *)

let borderline_cmd =
  let start_arg =
    Arg.(value & opt int 10 & info [ "start" ] ~docv:"N" ~doc:"Starting one-club size.")
  in
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Number of excursions.")
  in
  let cap_arg =
    Arg.(value & opt int 1_000_000 & info [ "cap" ] ~docv:"STEPS" ~doc:"Per-excursion step cap.")
  in
  let run k seed start count cap =
    let rng = P2p_prng.Rng.of_seed seed in
    let config = { Mu_infinity.k; lambda = 1.0 } in
    Printf.printf "mu = infinity watched process, K=%d (E[Z] = %g: zero drift on the top layer)\n"
      k (Mu_infinity.z_expectation ~k);
    let excursions = Mu_infinity.excursions rng config ~start_n:start ~count ~cap_steps:cap in
    let finished = List.filter (fun (e : Mu_infinity.excursion) -> not e.capped) excursions in
    let lengths = List.map (fun (e : Mu_infinity.excursion) -> float_of_int e.length) finished in
    let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (Int.max 1 (List.length l)) in
    Report.kv
      [
        ("excursions finished", Printf.sprintf "%d / %d" (List.length finished) count);
        ("mean excursion length (finished)", Report.fmt_float (mean lengths));
        ( "max peak",
          string_of_int
            (List.fold_left (fun acc (e : Mu_infinity.excursion) -> Int.max acc e.peak) 0
               excursions) );
      ]
  in
  Cmd.v (Cmd.info "borderline" ~doc:"The mu=infinity borderline process (Section VIII-D)")
    Term.(const run $ k_arg $ seed_arg $ start_arg $ count_arg $ cap_arg)

(* ---- campaign ---- *)

let campaign_cmd =
  let dir_arg =
    Arg.(required & opt (some string) None
         & info [ "dir"; "d" ] ~docv:"DIR" ~doc:"Campaign directory (the crash-safe store).")
  in
  let cell_timeout_arg =
    Arg.(value & opt (some (timeout_conv "cell timeout")) None
         & info [ "cell-timeout" ] ~docv:"SECS"
             ~doc:"Wall-clock watchdog per replication of a cell; an overrunning cell is a \
                   failure handled by --on-error (retried attempts use fresh deterministic \
                   streams and fresh watchdogs).")
  in
  let backoff_arg =
    Arg.(value & opt float 1.0
         & info [ "retry-backoff" ] ~docv:"SECS"
             ~doc:"Base exponential backoff before retry attempt A of a failing cell: \
                   $(docv) x 2^(A-1) seconds. 0 = retry immediately.")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 25
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Seal the active store segment and write a checkpoint every $(docv) cells.")
  in
  let registry_arg =
    Arg.(value & opt (some string) None
         & info [ "registry" ] ~docv:"FILE"
             ~doc:"Experiment-log JSONL: append an entry (name, hypothesis, spec hash, exact \
                   command, cell counts, verdict) when the campaign ends, however it ends.")
  in
  let crash_after_arg =
    Arg.(value & opt (some int) None
         & info [ "crash-after" ] ~docv:"N"
             ~doc:"Testing hook: exit(99) immediately after persisting the $(docv)-th new cell \
                   record of this process — simulates a kill at a cell boundary.")
  in
  let campaign_flight_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-recorder" ] ~docv:"DIR"
             ~doc:"Keep a per-replication flight recorder and snapshot it atomically to \
                   $(docv)/cell-<index>-d<domain>.jsonl while each cell runs: a cell that \
                   crashes, outruns --cell-timeout, or is SIGKILLed leaves a complete, \
                   parseable dump of its last few thousand engine events behind (render with \
                   'p2psim report').")
  in
  let opts_term =
    let make jobs on_error cell_timeout backoff every progress registry crash_after flight =
      if not (Float.is_finite backoff) || backoff < 0.0 then
        usage_error "--retry-backoff must be a finite non-negative number of seconds";
      if every < 1 then usage_error "--checkpoint-every must be at least 1";
      {
        Campaign.default_options with
        jobs = (if jobs <= 0 then None else Some jobs);
        on_error;
        cell_timeout_s = cell_timeout;
        retry_backoff_s = backoff;
        checkpoint_every = every;
        progress;
        registry;
        command = String.concat " " (Array.to_list Sys.argv);
        crash_after_cells = crash_after;
        handle_signals = true;
        flight_recorder = flight;
      }
    in
    Term.(const make $ jobs_arg $ on_error_arg $ cell_timeout_arg $ backoff_arg
          $ checkpoint_every_arg $ progress_arg $ registry_arg $ crash_after_arg
          $ campaign_flight_arg)
  in
  let finish dir = function
    | Error msg ->
        prerr_endline ("p2psim campaign: " ^ msg);
        exit 1
    | Ok (o : Campaign.outcome) ->
        Report.kv
          [
            ("cells done", string_of_int o.cells_done);
            ("run by this process", string_of_int o.cells_run);
            ("failed cells", string_of_int o.failed);
            ( "status",
              if o.complete then "complete"
              else if o.interrupted then "interrupted"
              else "partial" );
          ];
        if o.complete then Printf.printf "results: %s\n" (Store.results_path ~dir)
        else begin
          Printf.printf "resume with: p2psim campaign resume --dir %s\n" dir;
          exit 3
        end
  in
  let run_cmd =
    let spec_arg =
      Arg.(required & pos 0 (some file) None
           & info [] ~docv:"SPEC.json" ~doc:"Campaign spec file.")
    in
    let run spec_file dir opts =
      match Campaign_spec.of_file spec_file with
      | Error msg -> usage_error "%s: %s" spec_file msg
      | Ok spec ->
          Printf.printf "campaign %S (spec hash %s)\n" spec.Campaign_spec.name
            (Campaign_spec.hash spec);
          finish dir (Campaign.run ~dir opts spec)
    in
    Cmd.v
      (Cmd.info "run" ~doc:"Start a campaign from a spec file")
      Term.(const run $ spec_arg $ dir_arg $ opts_term)
  in
  let resume_cmd =
    let run dir opts = finish dir (Campaign.resume ~dir opts) in
    Cmd.v
      (Cmd.info "resume"
         ~doc:"Continue a campaign from its store, quarantining any torn trailing record")
      Term.(const run $ dir_arg $ opts_term)
  in
  let status_cmd =
    let run dir =
      match Campaign.status ~dir with
      | Error msg -> usage_error "%s" msg
      | Ok json -> print_endline (Json.to_string json)
    in
    Cmd.v
      (Cmd.info "status" ~doc:"Summarise a campaign directory without modifying it")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:"Checkpointed parameter sweeps: crash-safe store, retry/backoff, resume")
    [ run_cmd; resume_cmd; status_cmd ]

(* ---- report ---- *)

let report_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Observability file, dispatched on its schema header: a probe series \
                   (--metrics-out), a histogram file (--hist-out), a JSONL flight recorder dump \
                   (--flight-recorder; the .json Chrome form is for chrome://tracing, not this \
                   command), or a detector timeline (--alerts-out).")
  in
  let render_monitor_replay (samples : Probe.sample array) =
    Report.subsection "online detector replay (missing piece syndrome)";
    if Array.length samples = 0 then print_endline "no samples to replay"
    else begin
      let m = Monitor.create () in
      Array.iter
        (fun (s : Probe.sample) ->
          Monitor.observe m ~time:s.Probe.time ~one_club:s.Probe.one_club
            ~rarest_piece:s.Probe.rarest_piece ~rarest_count:s.Probe.rarest_count)
        samples;
      match Monitor.alerts m with
      | [] -> print_endline "detector quiet over the whole series"
      | alerts ->
          List.iter (fun a -> Format.printf "  %a@." Monitor.pp_alert a) alerts;
          Report.table
            ~header:[ "episode entered"; "exited" ]
            (List.map
               (fun (entered, exited) ->
                 [
                   Report.fmt_float entered;
                   (match exited with
                   | Some x -> Report.fmt_float x
                   | None -> "open at end of series");
                 ])
               (Monitor.episodes m))
    end
  in
  let render_hists file =
    match Hist.read_group_file file with
    | Error msg -> usage_error "cannot read %s: %s" file msg
    | Ok hists ->
        Printf.printf "%d histograms\n" (List.length hists);
        List.iter (fun nh -> Format.printf "%a@." Hist.pp_named nh) hists
  in
  let render_flight file =
    match Recorder.read_summary file with
    | Error msg -> usage_error "cannot read %s: %s" file msg
    | Ok ((capacity, recorded, dropped), events) ->
        Report.kv
          [
            ("ring capacity", string_of_int capacity);
            ("events recorded", string_of_int recorded);
            ("events overwritten", string_of_int dropped);
            ("events in dump", string_of_int (Array.length events));
          ];
        if Array.length events > 0 then begin
          let t0, _, _, _ = events.(0) in
          let t1, _, _, _ = events.(Array.length events - 1) in
          Report.kv [ ("sim-time span", Printf.sprintf "[%g, %g]" t0 t1) ];
          let counts = Hashtbl.create 16 in
          Array.iter
            (fun (_, code, _, _) ->
              Hashtbl.replace counts code (1 + Option.value ~default:0 (Hashtbl.find_opt counts code)))
            events;
          Report.subsection "event mix in the dump window";
          Report.table ~header:[ "event"; "count" ]
            (List.map
               (fun (code, n) -> [ Probe.code_name code; string_of_int n ])
               (List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts [])))
        end
  in
  let render_monitor_file file json =
    let ints path = Option.bind (Json.member path json) Json.to_int_opt in
    let lists path = Option.value ~default:[] (Option.bind (Json.member path json) Json.to_list_opt) in
    let alerts = lists "alerts" and episodes = lists "episodes" in
    Report.kv
      [
        ("samples", string_of_int (Option.value ~default:0 (ints "samples")));
        ("alerts", string_of_int (List.length alerts));
        ("episodes", string_of_int (List.length episodes));
      ];
    List.iter
      (fun a ->
        let f k = Option.bind (Json.member k a) Json.to_float_opt in
        let i k = Option.bind (Json.member k a) Json.to_int_opt in
        match (f "t", i "one_club", i "rarest_piece", i "rarest_count", f "slope", f "t_stat") with
        | Some t, Some club, Some piece, Some copies, Some slope, Some t_stat ->
            Printf.printf
              "  missing_piece_syndrome at t=%g: piece %d down to %d copies, one-club %d drifting %+g/t (t-stat %.2f)\n"
              t piece copies club slope t_stat
        | _ -> usage_error "malformed alert record in %s" file)
      alerts
  in
  let run file =
    let schema_of j = Option.bind (Json.member "schema" j) Json.to_string_opt in
    let first_record =
      match Json.read_jsonl_file file with
      | Error msg -> usage_error "cannot read %s: %s" file msg
      | Ok { Json.records = []; _ } -> usage_error "%s: no complete records" file
      | Ok { Json.records = r :: _; _ } -> r
    in
    match schema_of first_record with
    | Some "p2p-hist" -> render_hists file
    | Some s when s = Recorder.schema -> render_flight file
    | Some "p2p-monitor" -> render_monitor_file file first_record
    | Some "p2p-swarm-probe" -> begin
        match Series.read_file file with
        | Error msg -> usage_error "cannot read %s: %s" file msg
        | Ok s ->
        let k = Series.k s in
        let nsamples = Series.count s in
        Report.kv
          [
            ("samples", string_of_int nsamples);
            ("pieces (K)", string_of_int k);
            ("time-avg population N", Report.fmt_float (Series.avg_n s));
            ("time-avg peer seeds", Report.fmt_float (Series.avg_seeds s));
            ("time-avg one-club size", Report.fmt_float (Series.avg_one_club s));
            ("time-avg rarest-piece copies", Report.fmt_float (Series.avg_rarest_count s));
          ];
        Report.subsection "per-piece scarcity (time-averaged copies in the swarm)";
        let piece_avgs = Array.init k (fun i -> Series.avg_piece s i) in
        let rarest = ref 0 in
        Array.iteri (fun i v -> if v < piece_avgs.(!rarest) then rarest := i) piece_avgs;
        let avg_n = Series.avg_n s in
        Report.table
          ~header:[ "piece"; "avg copies"; "copies per peer"; "" ]
          (List.init k (fun i ->
               [
                 string_of_int (i + 1);
                 Report.fmt_float piece_avgs.(i);
                 (if avg_n > 0.0 then Report.fmt_float (piece_avgs.(i) /. avg_n) else "-");
                 (if i = !rarest then "<- rarest" else "");
               ]));
        Report.subsection "one-club growth (the missing piece syndrome witness)";
        let club = Series.one_club_series s in
        if Array.length club < 16 then
          Printf.printf "only %d samples; need at least 16 for a growth fit\n"
            (Array.length club)
        else begin
          let r = Classify.of_samples club in
          Report.kv
            [
              ("one-club growth rate", Report.fmt_float r.growth_rate ^ " peers/t");
              ("growth t-statistic", Report.fmt_float r.growth_t_stat);
              ("final one-club size", string_of_int r.final_n);
              ("one-club verdict", Classify.verdict_to_string r.verdict);
            ];
          if r.verdict = Classify.Appears_unstable then
            print_endline
              "one-club grows linearly: the missing piece syndrome transient signature \
               (Theorem 1, growth rate ~ Delta)"
        end;
        render_monitor_replay (Series.samples s)
      end
    | Some other -> usage_error "%s: unknown schema %S" file other
    | None ->
        usage_error
          "%s: no schema header (Chrome-trace .json dumps are for chrome://tracing, not report)"
          file
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render an observability file: probe series (scarcity, one-club growth, detector \
             replay), histograms, flight recorder dumps, or detector timelines")
    Term.(const run $ file_arg)

let () =
  let info = Cmd.info "p2psim" ~version:"1.0.0" ~doc:"P2P swarm stability toolkit (Zhu & Hajek)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd; simulate_cmd; fluid_cmd; region_cmd; overlay_cmd; hetero_cmd; coded_cmd; drift_cmd;
            exact_cmd; reachable_cmd; borderline_cmd; report_cmd; campaign_cmd;
          ]))
