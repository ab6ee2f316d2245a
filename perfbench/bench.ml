(* The scenario benchmark: five of the paper's workloads, each run through
   a simulator's public entry point for a fixed wall-clock budget.

     bench.exe WORKLOAD --seed N --seconds S --trace 0|1

   [--trace 0] makes bare passes (no probe attached) and reports the
   end-to-end metrics; [--trace 1] follows each bare pass with a replay
   of the same trajectory that attaches the library's own hist group and
   profile, and reports the per-layer metrics.  Every run's output is checked in law against the
   paper (Theorem 1, Theorem 15, Example 1's exact stationary mean, mass
   balance) rather than pinned bit-for-bit, so a change of draw order
   does not fail the benchmark.  Human-readable tables go first, then one
   "manifest: {...}" line, then the result as the last line of stdout.
   See README.md for why each workload exists. *)

open P2p_core
module PS = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng
module Probe = P2p_obs.Probe
module Hist = P2p_obs.Hist
module Profile = P2p_obs.Profile
module Clock = P2p_obs.Clock
module Json = P2p_obs.Json

let nproc = Domain.recommended_domain_count ()

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let timed f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Reference seconds.

   On a shared machine the same run can take 1.8x longer for minutes at a
   time (neighbours contend for the core, its caches and memory
   bandwidth), which no median over a window of seconds removes.  So every
   timing is reported in reference seconds: the wall time rescaled by how
   long a fixed kernel, defined here and never changed, takes just before
   and just after it.  One reference second is the time the kernel takes
   to run 100 times, about 0.6 wall seconds on an idle 2 GHz core.  Raw
   wall times are printed next to the figures. *)

(* Off the OCaml heap, so it never shows in [peak_heap_mb]. *)
let ref_table =
  let t = Bigarray.(Array1.create int c_layout (1 lsl 19)) in
  for i = 0 to (1 lsl 19) - 1 do
    t.{i} <- (i * 7919) land ((1 lsl 19) - 1)
  done;
  t

let ref_floats = Array.init 256 (fun i -> float_of_int (i + 1) *. 1e-3)

(* Three parts of about equal length, one for each way the simulators
   spend their time: cache-missing reads over 4 MB, short-lived
   allocation and hashing, and floating-point arithmetic over a small
   array. *)
let reference_kernel () =
  let x = ref 88172645463325252 in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x
  in
  let j = ref 0 in
  for _ = 1 to 20_000 do
    j := ref_table.{(!j + (next () land 0xffff)) land ((1 lsl 19) - 1)}
  done;
  let h = Hashtbl.create 1024 in
  let l = ref [] in
  for i = 1 to 25_000 do
    let k = next () land 1023 in
    Hashtbl.replace h k (i + Option.value ~default:0 (Hashtbl.find_opt h k));
    l := (float_of_int i, k) :: (if i land 255 = 0 then [] else !l)
  done;
  let acc = Array.make 4 0.0 in
  for _ = 1 to 4_000 do
    for i = 0 to 255 do
      let a = i land 3 in
      acc.(a) <- (acc.(a) *. 0.999) +. ref_floats.(i)
    done
  done;
  ignore (Sys.opaque_identity (!j, !l, acc))

(* Wall seconds per reference second, from the median of three kernel
   runs. *)
let reference_s () = 100.0 *. median (List.init 3 (fun _ -> snd (timed reference_kernel)))

(* [f ()] and the factor turning its wall seconds into reference
   seconds, from kernel timings on both sides of it. *)
let in_reference f =
  let r0 = reference_s () in
  let x = f () in
  let r1 = reference_s () in
  (x, 2.0 /. (r0 +. r1))

(* ------------------------------------------------------------------ *)
(* What one run reports, whatever backend ran it. *)

type run = {
  wall_s : float;  (** around the public entry point *)
  sim_time : float;  (** simulated time covered *)
  transitions : float;
      (** state changes: arrivals + useful transfers + departures (flow
          mass for the fluid backend); silent contacts excluded *)
  failure : string option;  (** the output check; [None] = passed *)
  counts : (string * float) list;  (** per-layer counts off the run's stats *)
}

(* A reconciliation table: disjoint rows that, with the remainder, add up
   to the loop's wall time; [children] are nested inside a row and shown
   but not summed. *)
type table = {
  title : string;
  loop_s : float;
  rows : (string * float) list;
  remainder : string;  (** what the unattributed remainder holds *)
  children : (string * float) list;
}

let unattributed t = t.loop_s -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 t.rows

type instance = {
  bare : Rng.t -> run;
  traced : floor:float -> Rng.t -> run * table list * (string * float) list;
      (** a run with probes attached: the run, its tables, and the
          per-layer values read off the probes *)
  final_check : Rng.t -> string option;  (** once, outside the timed loop *)
}

type workload = {
  name : string;
  horizon : float;
  params : (string * string) list;  (** for the manifest *)
  setup : unit -> instance;
}

(* ------------------------------------------------------------------ *)
(* Reading the probes. *)

(* The duration an empty sampled span records: the clock cost every
   sampled phase timing carries, subtracted before scaling up. *)
let span_floor_s () =
  let block () =
    let h = Hist.create () in
    let tm = Hist.timer ~period:1 h in
    for _ = 1 to 100_000 do
      Hist.tock tm (Hist.tick tm)
    done;
    Hist.sum h /. float_of_int (Hist.count h)
  in
  median (List.init 5 (fun _ -> block ()))

(* Seconds spent in a phase timer: the 1-in-[period] sample less its
   clock cost, scaled back up by the period. *)
let phase_s ~floor group name =
  match List.assoc_opt name (Hist.hists group) with
  | Some h when Hist.count h > 0 ->
      float_of_int (Hist.sample_period h) *. (Hist.sum h -. (float_of_int (Hist.count h) *. floor))
  | _ -> 0.0

let traced_probe () = Probe.make ~profile:(Profile.create ()) ~hists:(Hist.group ()) ()

let loop_wall probe name =
  match List.assoc_opt (name ^ "/event-loop") (Profile.phases probe.Probe.profile) with
  | Some (s, _) -> s
  | None -> 0.0

(* The engine's three phase rows for a [drive] loop named [sim]. *)
let engine_table ~floor ~title probe sim children =
  let g = probe.Probe.hists in
  {
    title;
    loop_s = loop_wall probe sim;
    remainder = "engine.unattributed_s";
    rows =
      List.map
        (fun (row, phase) -> (row, phase_s ~floor g (sim ^ "/" ^ phase)))
        [ ("engine.total_rate_s", "total_rate"); ("engine.apply_s", "apply");
          ("engine.scheduled_s", "scheduled") ];
    children = List.map (fun (row, phase) -> (row, phase_s ~floor g phase)) children;
  }

let engine_layers t =
  (("engine.loop_s", t.loop_s) :: ("engine.unattributed_s", unattributed t) :: t.rows)
  @ t.children

(* ------------------------------------------------------------------ *)
(* Checks. *)

let check_all checks =
  List.find_map (fun (ok, msg) -> if ok then None else Some msg) checks

let not_truncated truncated = (not truncated, "run reported truncated")

(* ------------------------------------------------------------------ *)
(* Workloads.  Horizons are fixed per workload so a run is the same
   amount of simulated work on every tree; see README.md. *)

let markov_run ?probe ~horizon ~sample_every config rng =
  let (stats, _), wall_s =
    timed (fun () -> Sim_markov.run ?probe ~sample_every ~rng config ~horizon)
  in
  let transitions = stats.Sim_markov.arrivals + stats.transfers + stats.departures in
  let counts =
    [
      ("engine.events", float_of_int stats.events);
      ("sim_markov.transitions", float_of_int transitions);
      ("sim_markov.silent_share", 1.0 -. (float_of_int transitions /. float_of_int stats.events));
    ]
  in
  (stats, { wall_s; sim_time = stats.final_time; transitions = float_of_int transitions;
            failure = None; counts })

let markov_traced ~floor ~horizon ~sample_every ~check config rng =
  let probe = traced_probe () in
  let stats, r = markov_run ~probe ~horizon ~sample_every config rng in
  let t =
    engine_table ~floor ~title:"sim_markov event loop" probe "sim_markov"
      [ ("sim_markov.contact_s", "sim_markov/contact") ]
  in
  ({ r with failure = check stats }, [ t ], engine_layers t)

let example1_stable =
  let horizon = 100_000.0 in
  {
    name = "example1_stable";
    horizon;
    params = [ ("model", "Scenario.example1"); ("lambda0", "1.5"); ("us", "1"); ("mu", "1");
               ("gamma", "2"); ("initial", "empty"); ("backend", "Sim_markov.run") ];
    setup =
      (fun () ->
        let params = Scenario.example1 ~lambda0:1.5 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
        let config = Sim_markov.default_config params in
        let chain = Truncated.build params ~n_max:100 in
        let pi = Truncated.stationary chain in
        let mean_n = Truncated.mean_population chain pi in
        let cap_mass = Truncated.truncation_mass_at_cap chain pi in
        let sample_every = horizon /. 2000.0 in
        let check (stats : Sim_markov.stats) =
          (* Batch means over the grid; three 95% half-widths is about six
             standard errors, so a correct simulator fails this about once
             in 10^5 runs. *)
          let est = P2p_stats.Batch_means.of_int_samples stats.samples in
          check_all
            [
              not_truncated stats.truncated;
              (Stability.classify params = Stability.Positive_recurrent,
               "Theorem 1 does not call Example 1 at lambda0=1.5 stable");
              (cap_mass < 1e-4, Printf.sprintf "truncation cap mass %g" cap_mass);
              (Float.abs (est.mean -. mean_n) <= 3.0 *. est.half_width,
               Printf.sprintf "time-average N %.4f (batch means %.4f +- %.4f) vs exact E[N] %.4f"
                 stats.time_avg_n est.mean est.half_width mean_n);
            ]
        in
        {
          bare =
            (fun rng ->
              let stats, r = markov_run ~horizon ~sample_every config rng in
              { r with failure = check stats });
          traced = (fun ~floor rng -> markov_traced ~floor ~horizon ~sample_every ~check config rng);
          final_check = (fun _ -> None);
        });
  }

let syndrome_k4 =
  let horizon = 2_500.0 in
  {
    name = "syndrome_k4";
    horizon;
    params = [ ("model", "Scenario.flash_crowd"); ("k", "4"); ("lambda", "3"); ("us", "1");
               ("mu", "1"); ("gamma", "2"); ("initial", "empty"); ("backend", "Sim_markov.run") ];
    setup =
      (fun () ->
        let params = Scenario.flash_crowd ~k:4 ~lambda:3.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
        let config = Sim_markov.default_config params in
        let sample_every = horizon /. 200.0 in
        let check (stats : Sim_markov.stats) =
          check_all
            [
              not_truncated stats.truncated;
              (Stability.classify params = Stability.Transient,
               "Theorem 1 does not call the k=4 lambda=3 flash crowd transient");
              ((Classify.of_samples stats.samples).verdict = Classify.Appears_unstable,
               "empirical verdict is not transient");
            ]
        in
        {
          bare =
            (fun rng ->
              let stats, r = markov_run ~horizon ~sample_every config rng in
              { r with failure = check stats });
          traced = (fun ~floor rng -> markov_traced ~floor ~horizon ~sample_every ~check config rng);
          final_check = (fun _ -> None);
        });
  }

let coded_q64 =
  let horizon = 4_000.0 in
  let gift =
    { Stability.Coded.q = 64; k = 32; us = 0.0; mu = 1.0; gamma = infinity; lambda0 = 0.9;
      lambda1 = 0.1 }
  in
  {
    name = "coded_q64";
    horizon;
    params = [ ("model", "Stability.Coded gift"); ("q", "64"); ("k", "32"); ("us", "0");
               ("mu", "1"); ("gamma", "inf"); ("lambda0", "0.9"); ("lambda1", "0.1");
               ("initial", "empty"); ("backend", "Sim_coded.run") ];
    setup =
      (fun () ->
        let config = Sim_coded.of_gift gift in
        ignore (P2p_gf.Kernel.of_field (P2p_gf.Field.gf gift.q));
        let theory = Stability.Coded.classify gift in
        let run ?probe rng =
          let stats, wall_s = timed (fun () -> Sim_coded.run ?probe ~rng config ~horizon) in
          let transitions = stats.Sim_coded.arrivals + stats.useful_transfers + stats.departures in
          let empirical = (Classify.of_samples stats.samples).verdict in
          let failure =
            check_all
              [
                not_truncated stats.truncated;
                (theory = Stability.Positive_recurrent,
                 "Theorem 15 does not call the q=64 gift swarm positive recurrent");
                (empirical = Classify.Appears_stable,
                 "empirical verdict " ^ Classify.verdict_to_string empirical
                 ^ " disagrees with Theorem 15");
              ]
          in
          let tried = stats.useful_transfers + stats.useless_transfers in
          ( probe,
            {
              wall_s;
              sim_time = stats.final_time;
              transitions = float_of_int transitions;
              failure;
              counts =
                [
                  ("engine.events", float_of_int stats.events);
                  ("sim_coded.useless_share",
                   float_of_int stats.useless_transfers /. float_of_int (Int.max 1 tried));
                ];
            } )
        in
        {
          bare = (fun rng -> snd (run rng));
          traced =
            (fun ~floor rng ->
              let probe = traced_probe () in
              let _, r = run ~probe rng in
              let t =
                engine_table ~floor ~title:"sim_coded event loop" probe "sim_coded"
                  [ ("sim_coded.rank_update_s", "sim_coded/rank_update");
                    ("sim_coded.vector_select_s", "sim_coded/vector_select") ]
              in
              (r, [ t ], engine_layers t));
          final_check = (fun _ -> None);
        });
  }

let fluid_flash_1e6 =
  let horizon = 50.0 in
  (* A coarse grid: the integrator lands on every grid point, and the
     default 200-point grid would force most of the steps. *)
  let sample_every = 5.0 in
  let n0 = 1e6 in
  {
    name = "fluid_flash_1e6";
    horizon;
    params = [ ("model", "Scenario.flash_crowd"); ("k", "8"); ("lambda", "100"); ("us", "1");
               ("mu", "1"); ("gamma", "2"); ("initial", "1e6 empty peers");
               ("backend", "Sim_fluid.run") ];
    setup =
      (fun () ->
        let params = Scenario.flash_crowd ~k:8 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
        let config = { (Sim_fluid.default_config params) with initial = [ (PS.empty, n0) ] } in
        let run ?probe rng =
          let (stats, _), wall_s = timed (fun () -> Sim_fluid.run ?probe ~sample_every ~rng config ~horizon) in
          (* Mass balance: every arrival is either still present or has
             departed, to integration round-off. *)
          let balance = stats.Sim_fluid.arrivals -. stats.departures -. (stats.final_n -. n0) in
          let failure =
            check_all
              [
                not_truncated stats.truncated;
                (Float.abs balance <= 1e-9 *. (n0 +. stats.arrivals),
                 Printf.sprintf "mass balance off by %g" balance);
              ]
          in
          ( stats,
            {
              wall_s;
              sim_time = stats.final_time;
              transitions = stats.arrivals +. stats.transfers +. stats.departures;
              failure;
              counts =
                [
                  ("ode.steps", float_of_int stats.steps);
                  ("ode.rejected_steps", float_of_int stats.rejected_steps);
                  ("ode.rhs_evals", float_of_int stats.rhs_evals);
                ];
            } )
        in
        {
          bare = (fun rng -> snd (run rng));
          traced =
            (fun ~floor rng ->
              let probe = traced_probe () in
              let _, r = run ~probe rng in
              let t =
                {
                  title = "sim_fluid integration loop";
                  loop_s = loop_wall probe "sim_fluid";
                  rows = [ ("ode.advance_s", phase_s ~floor probe.Probe.hists "sim_fluid/advance") ];
                  remainder = "engine.unattributed_s";
                  children = [];
                }
              in
              (r, [ t ], engine_layers t));
          final_check = (fun _ -> None);
        });
  }

let agent_sharded =
  let horizon = 200.0 in
  let shards = Int.max 2 nproc in
  (* Timed runs put every shard on one domain: on a shared 2-core box a
     2-domain run waits at each of its 200 barriers for whichever core a
     neighbour is slowing, and spread 0.2-0.5 over ten seeds.  The
     parallel run is measured in the traced pass ([shard.speedup],
     [shard.barrier_s]). *)
  let jobs = 1 in
  let par_jobs = Int.min shards nproc in
  {
    name = "agent_sharded";
    horizon;
    params = [ ("model", "Scenario.flash_crowd"); ("k", "4"); ("lambda", "100"); ("us", "1");
               ("mu", "1"); ("gamma", "2"); ("initial", "empty");
               ("backend", "Sim_agent.run_sharded"); ("shards", string_of_int shards);
               ("jobs", string_of_int jobs); ("traced_parallel_jobs", string_of_int par_jobs) ];
    setup =
      (fun () ->
        let params = Scenario.flash_crowd ~k:4 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
        let config = Sim_agent.default_config params in
        ignore (Shard.partition_counts ~shards config.initial);
        let run ?probes ~shards ~jobs rng =
          let (stats, _, report), wall_s =
            timed (fun () -> Sim_agent.run_sharded ?probes ~shards ~jobs ~rng config ~horizon)
          in
          let transitions = stats.Sim_agent.arrivals + stats.transfers + stats.departures in
          let failure =
            check_all
              [
                not_truncated stats.truncated;
                (stats.arrivals - stats.departures = stats.final_n,
                 "arrivals - departures <> final population");
                (Array.for_all (fun e -> e > 0) report.Sim_agent.shard_events,
                 "a shard processed no events");
              ]
          in
          ( (stats, report),
            { wall_s; sim_time = stats.final_time; transitions = float_of_int transitions;
              failure; counts = [] } )
        in
        {
          bare = (fun rng -> snd (run ~shards ~jobs rng));
          traced =
            (fun ~floor rng ->
              (* Every run below replays [rng]; the jobs count never
                 changes a sharded trajectory. *)
              let probe1 = traced_probe () in
              let (stats1, _), _ = run ~probes:(fun _ -> probe1) ~shards:1 ~jobs:1 (Rng.copy rng) in
              let _, r1_bare = run ~shards:1 ~jobs:1 (Rng.copy rng) in
              let _, r_par_bare = run ~shards ~jobs:par_jobs (Rng.copy rng) in
              let t1 =
                engine_table ~floor ~title:"sim_agent at 1 shard (same swarm)" probe1 "sim_agent"
                  [ ("sim_agent.contact_s", "sim_agent/contact") ]
              in
              let contact1 = List.assoc "sim_agent.contact_s" t1.children in
              let other_per_event = (t1.loop_s -. contact1) /. float_of_int stats1.events in
              (* A shard is busy for its sampled contact time plus its
                 other events at the 1-shard cost per event. *)
              let sharded ~jobs rng =
                let probes = Array.init shards (fun _ -> traced_probe ()) in
                let (stats, report), r = run ~probes:(Array.get probes) ~shards ~jobs rng in
                let busy =
                  Array.mapi
                    (fun i p ->
                      ( phase_s ~floor p.Probe.hists "sim_agent/contact",
                        float_of_int report.Sim_agent.shard_events.(i) *. other_per_event ))
                    probes
                in
                (stats, report, r, busy)
              in
              let stats, report, r, busy = sharded ~jobs (Rng.copy rng) in
              let _, _, r_par, busy_par = sharded ~jobs:par_jobs rng in
              let sum f = Array.fold_left (fun acc b -> acc +. f b) 0.0 in
              let serial =
                {
                  title = Printf.sprintf "sim_agent, %d shards on 1 domain" shards;
                  loop_s = r.wall_s;
                  rows =
                    [ ("shards' contact_s", sum fst busy);
                      ("shards' other_s (1-shard cost/event)", sum snd busy) ];
                  remainder = "serial window, message and sync work";
                  children = [];
                }
              in
              let busiest =
                Array.fold_left
                  (fun (bc, bo) (c, o) -> if c +. o > bc +. bo then (c, o) else (bc, bo))
                  (0.0, 0.0) busy_par
              in
              let parallel =
                {
                  title = Printf.sprintf "sim_agent, %d shards on %d domains" shards par_jobs;
                  loop_s = r_par.wall_s;
                  rows =
                    [ ("busiest shard contact_s", fst busiest);
                      ("busiest shard other_s (1-shard cost/event)", snd busiest) ];
                  remainder = "shard.barrier_s";
                  children = [];
                }
              in
              let events = float_of_int stats.events in
              let max_events =
                float_of_int (Array.fold_left Int.max 0 report.Sim_agent.shard_events)
              in
              let layers =
                engine_layers t1
                |> List.filter (fun (k, _) -> k <> "sim_agent.contact_s")
                |> List.append
                     [
                       ("engine.events", float_of_int stats1.events);
                       ("sim_agent.contact_s", sum fst busy);
                       ("shard.windows", float_of_int report.windows);
                       ("shard.cross_messages", float_of_int report.cross_messages);
                       ("shard.cross_share", float_of_int report.cross_messages /. events);
                       ("shard.event_inflation", events /. float_of_int stats1.events);
                       ("shard.imbalance", max_events *. float_of_int shards /. events);
                       ("shard.barrier_s", unattributed parallel);
                       ("shard.speedup", r1_bare.wall_s /. r_par_bare.wall_s);
                     ]
              in
              (r, [ serial; parallel; t1 ], layers));
          final_check =
            (fun rng ->
              (* Same seed, any jobs count: identical statistics. *)
              let a, _ = run ~shards ~jobs:1 (Rng.copy rng) in
              let b, _ = run ~shards ~jobs:par_jobs rng in
              if compare a b = 0 then None
              else Some (Printf.sprintf "stats differ between jobs=1 and jobs=%d" par_jobs));
        });
  }

let workloads = [ example1_stable; syndrome_k4; coded_q64; fluid_flash_1e6; agent_sharded ]

(* ------------------------------------------------------------------ *)
(* Direct calls into the inner layers, at the shapes the workloads that
   own them use (GF(64)^32 for coded_q64, 256 types for fluid_flash_1e6,
   nproc empty tasks for agent_sharded).  Each is the median over five
   blocks of the mean cost per call. *)

let per_call ~calls f =
  median
    (List.init 5 (fun _ ->
         let (), s =
           timed (fun () ->
               for _ = 1 to calls do
                 f ()
               done)
         in
         s /. float_of_int calls))

let direct_layers ~floor rng =
  let field = P2p_gf.Field.gf 64 in
  let kernel = P2p_gf.Kernel.of_field field in
  let vecs = Array.init 40 (fun _ -> P2p_gf.Mat.random_vec field (Rng.int_below rng) 32) in
  let inserts_per_fill =
    let s = P2p_coding.Subspace.create field ~k:32 in
    Array.fold_left
      (fun n v ->
        if P2p_coding.Subspace.is_full s then n
        else begin
          ignore (P2p_coding.Subspace.insert s v);
          n + 1
        end)
      0 vecs
  in
  let fill () =
    let s = P2p_coding.Subspace.create field ~k:32 in
    for i = 0 to inserts_per_fill - 1 do
      ignore (P2p_coding.Subspace.insert s vecs.(i))
    done
  in
  let x = vecs.(0) and y = Array.copy vecs.(1) in
  let c = 1 + Rng.int_below rng 63 in
  let fluid_params = Scenario.flash_crowd ~k:8 ~lambda:100.0 ~us:1.0 ~mu:1.0 ~gamma:2.0 in
  let dim = Fluid.dim fluid_params in
  let dens = Array.init dim (fun _ -> 1e6 *. Rng.float rng /. float_of_int dim) in
  let dx = Array.make (dim + Fluid.aug_slots) 0.0 in
  [
    ("coding.insert_ns", 1e9 *. per_call ~calls:50 fill /. float_of_int inserts_per_fill);
    ("gf.axpy_ns", 1e9 *. per_call ~calls:100_000 (fun () -> P2p_gf.Kernel.axpy_into kernel ~c ~x ~y));
    ("fluid.drift_us",
     1e6 *. per_call ~calls:10 (fun () ->
                Fluid.drift_into fluid_params ~us_scale:1.0 ~abort_rate:0.0 ~loss_factor:1.0 dens dx));
    ("pool.run_us", 1e6 *. per_call ~calls:50 (fun () -> Pool.run ~jobs:nproc nproc (fun _ -> ())));
    ("obs.clock_ns", 1e9 *. floor);
  ]

(* ------------------------------------------------------------------ *)
(* Metric catalogue: the names and units BENCHMARK.json declares. *)

let end_to_end_units =
  [ ("sim_rate", "simtime/s"); ("transitions_per_s", "1/s"); ("setup_s", "s");
    ("peak_heap_mb", "MB") ]

let per_layer_units =
  [
    ("engine.events", "count"); ("engine.loop_s", "s"); ("engine.total_rate_s", "s");
    ("engine.apply_s", "s"); ("engine.scheduled_s", "s"); ("engine.unattributed_s", "s");
    ("sim_markov.contact_s", "s"); ("sim_markov.transitions", "count");
    ("sim_markov.silent_share", "share"); ("sim_coded.rank_update_s", "s");
    ("sim_coded.vector_select_s", "s"); ("sim_coded.useless_share", "share");
    ("coding.insert_ns", "ns"); ("gf.axpy_ns", "ns"); ("ode.steps", "count");
    ("ode.rejected_steps", "count"); ("ode.rhs_evals", "count"); ("ode.advance_s", "s");
    ("fluid.drift_us", "us"); ("sim_agent.contact_s", "s"); ("shard.windows", "count");
    ("shard.cross_messages", "count"); ("shard.cross_share", "share");
    ("shard.event_inflation", "ratio"); ("shard.imbalance", "ratio"); ("shard.barrier_s", "s");
    ("shard.speedup", "ratio"); ("pool.run_us", "us"); ("gc.minor_collections", "count");
    ("gc.major_collections", "count"); ("gc.minor_mwords", "Mwords");
    ("gc.promoted_mwords", "Mwords"); ("obs.trace_overhead", "ratio"); ("obs.clock_ns", "ns");
  ]

(* [f ()], the GC work it did, and the major heap's high-water mark over
   it in MB: the heap size at the end of every major cycle and at the
   end.  A full major collection first empties the heap left by earlier
   runs, so every run starts from the same state. *)
let gc_delta f =
  Gc.full_major ();
  let a = Gc.quick_stat () in
  let peak = ref a.heap_words in
  let alarm = Gc.create_alarm (fun () -> peak := Int.max !peak (Gc.quick_stat ()).heap_words) in
  let r = f () in
  Gc.delete_alarm alarm;
  let b = Gc.quick_stat () in
  let peak_mb = float_of_int (Int.max !peak b.heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  ( r,
    [
      ("gc.minor_collections", float_of_int (b.minor_collections - a.minor_collections));
      ("gc.major_collections", float_of_int (b.major_collections - a.major_collections));
      ("gc.minor_mwords", (b.minor_words -. a.minor_words) /. 1e6);
      ("gc.promoted_mwords", (b.promoted_words -. a.promoted_words) /. 1e6);
    ],
    peak_mb )

(* Median of each key over a list of assoc lists. *)
let medians rows =
  let keys = List.sort_uniq compare (List.concat_map (List.map fst) rows) in
  List.map (fun k -> (k, median (List.filter_map (List.assoc_opt k) rows))) keys

let print_table t =
  Printf.printf "  %s\n" t.title;
  List.iter (fun (k, v) -> Printf.printf "    %-44s %12.6f s\n" k v) t.rows;
  Printf.printf "    %-44s %12.6f s\n" ("remainder = " ^ t.remainder) (unattributed t);
  Printf.printf "    %-44s %12.6f s  (rows + remainder)\n" "loop wall" t.loop_s;
  List.iter (fun (k, v) -> Printf.printf "      inside a row: %-30s %12.6f s\n" k v) t.children

let usage () =
  prerr_endline
    ("usage: bench.exe WORKLOAD --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat " " (List.map (fun w -> w.name) workloads));
  exit 2

let is_time k =
  match List.assoc_opt k per_layer_units with Some ("s" | "ns" | "us") -> true | _ -> false

let scale_times factor = List.map (fun (k, v) -> (k, if is_time k then v *. factor else v))

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let at q = a.(Int.min (n - 1) (int_of_float (q *. float_of_int n))) in
  (at 0.25, median xs, at 0.75)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | name :: rest -> parse (("workload", name) :: acc) rest
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let rep_rng rep = Rng.of_seed_pair ~master:seed ~stream:rep in
  (* Set-up: everything between workload start and the first timed run.
     The median over five blocks of the mean per set-up, each block
     repeating it for at least 50 ms so microsecond set-ups read
     steadily. *)
  let inst = w.setup () in
  let setup_walls, setup_factor =
    in_reference (fun () ->
        List.init 5 (fun _ ->
            let t0 = Clock.now_s () in
            let n = ref 0 in
            while !n = 0 || Clock.now_s () -. t0 < 0.05 do
              ignore (w.setup ());
              incr n
            done;
            (Clock.now_s () -. t0) /. float_of_int !n))
  in
  let floor = span_floor_s () in
  let deadline = Clock.now_s () +. seconds in
  let min_reps = 3 in
  (* Bare runs, and with tracing on, each followed by a traced replay of
     the same trajectory (probes never perturb a run); each paired with
     its reference factor. *)
  let bare = ref [] and traced = ref [] and rep = ref 0 in
  while List.length !bare < min_reps || Clock.now_s () < deadline do
    let rng () = rep_rng !rep in
    bare := in_reference (fun () -> gc_delta (fun () -> inst.bare (rng ()))) :: !bare;
    if trace then begin
      Gc.full_major ();
      traced := in_reference (fun () -> inst.traced ~floor (rng ())) :: !traced
    end;
    incr rep
  done;
  let bare = List.rev !bare and traced = List.rev !traced in
  let once = inst.final_check (rep_rng !rep) in
  let runs = List.map (fun ((r, _, _), _) -> r) bare @ List.map (fun ((r, _, _), _) -> r) traced in
  let failures = List.filter_map (fun r -> r.failure) runs @ Option.to_list once in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) failures;
  let attempted = List.length runs + 1 in
  let bare_ref_s = List.map (fun ((r, _, _), f) -> r.wall_s *. f) bare in
  let rate f = median (List.map (fun ((r, _, _), fac) -> f r /. (r.wall_s *. fac)) bare) in
  let peak_heap_mb = median (List.map (fun ((_, _, mb), _) -> mb) bare) in
  let metrics, units =
    if not trace then
      ( [ ("sim_rate", rate (fun r -> r.sim_time));
          ("transitions_per_s", rate (fun r -> r.transitions));
          ("setup_s", median setup_walls *. setup_factor); ("peak_heap_mb", peak_heap_mb) ],
        end_to_end_units )
    else begin
      let traced_ref_s = List.map (fun ((r, _, _), f) -> r.wall_s *. f) traced in
      let direct, direct_factor = in_reference (fun () -> direct_layers ~floor (rep_rng !rep)) in
      let layers =
        medians (List.map (fun ((r, _, l), f) -> scale_times f (r.counts @ l)) traced)
        @ medians (List.map (fun ((_, gc, _), _) -> gc) bare)
        @ scale_times direct_factor direct
        @ [ ("obs.trace_overhead", median traced_ref_s /. median bare_ref_s) ]
      in
      let (_, tables, _), _ = List.nth traced (List.length traced - 1) in
      Printf.printf "per-layer reconciliation, wall seconds (last traced run of %d):\n"
        (List.length traced);
      List.iter print_table tables;
      (* Layers a workload does not run read 0. *)
      ( List.map
          (fun (k, _) -> (k, Option.value ~default:0.0 (List.assoc_opt k layers)))
          per_layer_units,
        per_layer_units )
    end
  in
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (k, _) -> Printf.printf "CHECK FAILED: metric %s is not finite\n" k) bad;
  let metrics = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) metrics in
  let walls = List.map (fun ((r, _, _), _) -> r.wall_s) bare in
  let q1, q2, q3 = quartiles walls in
  let f1, f2, f3 = quartiles (List.map snd bare) in
  Printf.printf "%s: horizon %g, %d bare runs, %d traced runs\n" w.name w.horizon
    (List.length bare) (List.length traced);
  Printf.printf "  bare wall s    q1 %.4f  median %.4f  q3 %.4f\n" q1 q2 q3;
  Printf.printf "  ref s / wall s q1 %.4f  median %.4f  q3 %.4f\n" f1 f2 f3;
  Printf.printf "  sim_rate per bare run:";
  List.iter (fun ((r, _, _), f) -> Printf.printf " %.5g" (r.sim_time /. (r.wall_s *. f))) bare;
  print_newline ();
  Printf.printf "  raw sim_rate %.6g simtime/wall s, raw transitions_per_s %.6g /wall s\n"
    (median (List.map (fun ((r, _, _), _) -> r.sim_time /. r.wall_s) bare))
    (median (List.map (fun ((r, _, _), _) -> r.transitions /. r.wall_s) bare));
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %18.6f %s\n" k v (List.assoc k units))
    metrics;
  Printf.printf "  %-28s %18d of %d\n" "runs_failed" (List.length failures) attempted;
  let jstr s = Json.String s and jnum v = Json.Float v and jint n = Json.Int n in
  print_endline
    ("manifest: "
    ^ Json.to_string
        (Json.Obj
           [
             ("workload", jstr w.name); ("seed", jint seed); ("seconds", jnum seconds);
             ("trace", jint (if trace then 1 else 0)); ("horizon", jnum w.horizon);
             ("params", Json.Obj (List.map (fun (k, v) -> (k, jstr v)) w.params));
             ("nproc", jint nproc); ("ocaml", jstr Sys.ocaml_version);
             ("bare_runs", jint (List.length bare)); ("traced_runs", jint (List.length traced));
             ("median_bare_wall_s", jnum q2); ("median_ref_per_wall", jnum f2);
           ]));
  let correct = failures = [] && bad = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct); ("attempted", jint attempted);
            ("failed", jint (List.length failures + List.length bad));
            ("metrics",
             Json.Obj
               (List.map
                  (fun (k, v) -> (k, Json.Obj [ ("value", jnum v); ("unit", jstr (List.assoc k units)) ]))
                  metrics));
          ]))
