module Rng = P2p_prng.Rng
module Dist = P2p_prng.Dist
module Probe = P2p_obs.Probe
module Profile = P2p_obs.Profile
module Hist = P2p_obs.Hist
module Vec = P2p_stats.Vec
module Timeavg = P2p_stats.Timeavg

type counters = {
  mutable events : int;
  mutable arrivals : int;
  mutable transfers : int;
  mutable completions : int;
  mutable departures : int;
  mutable aborted : int;
  mutable lost : int;
  mutable max_n : int;
}

type t = {
  probe : Probe.t;
  frun : Faults.run;
  start_time : float;
  horizon : float;
  max_events : int;
  counters : counters;
  avg : Timeavg.t;
  samples : (float * int) Vec.t;
  mutable clock : float;
  mutable truncated : bool;
  mutable stop_requested : bool;
  sample_every : float;
  mutable next_sample : float;
  probing : bool;
  mutable next_probe : float;
}

let counters t = t.counters
let faults t = t.frun
let start_time t = t.start_time
let request_stop t = t.stop_requested <- true

type resume = { t0 : float; grid_after : float; frun : Faults.run option }

let fresh = { t0 = 0.0; grid_after = -1.0; frun = None }

(* First grid point of a resumed segment: the smallest multiple of
   [interval] strictly after [grid_after].  A fresh run ([grid_after < 0])
   starts at exactly 0.0 — the same constant the pre-resume engine used,
   preserving bit-identity of all existing sample grids. *)
let grid_start ~interval ~grid_after =
  if grid_after < 0.0 then 0.0
  else begin
    let g = ref (interval *. (Float.floor (grid_after /. interval) +. 1.0)) in
    while !g <= grid_after do
      g := !g +. interval
    done;
    !g
  end

let observe t ~time ~n =
  Timeavg.observe t.avg ~time ~value:(float_of_int n);
  if n > t.counters.max_n then t.counters.max_n <- n

type model = {
  total_rate : unit -> float;
  apply : time:float -> u:float -> unit;
  next_scheduled : unit -> float;
  scheduled : time:float -> unit;
  population : unit -> int;
  extra_sample : time:float -> unit;
  probe_sample : time:float -> Probe.sample;
  finish : time:float -> unit;
}

type stats = {
  final_time : float;
  events : int;
  arrivals : int;
  transfers : int;
  completions : int;
  departures : int;
  time_avg_n : float;
  max_n : int;
  final_n : int;
  truncated : bool;
  stopped : bool;
  outage_time : float;
  aborted_peers : int;
  lost_transfers : int;
  samples : (float * int) array;
}

(* The sampling grid must capture the value *before* the event the clock
   is advancing to.  Swarm probes walk their own sim-time grid in
   lockstep — sim time, never wall clock, so probe series are
   bit-identical across --jobs. *)
let record_through t ~population ~extra_sample ~probe_sample time =
  while t.next_sample <= time && t.next_sample <= t.horizon do
    Vec.push t.samples (t.next_sample, population ());
    extra_sample ~time:t.next_sample;
    t.next_sample <- t.next_sample +. t.sample_every
  done;
  if t.probing then
    while t.next_probe <= time && t.next_probe <= t.horizon do
      t.probe.Probe.on_sample (probe_sample ~time:t.next_probe);
      t.next_probe <- t.next_probe +. t.probe.Probe.interval
    done

let record_samples_through t model time =
  record_through t ~population:model.population ~extra_sample:model.extra_sample
    ~probe_sample:model.probe_sample time

let make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events ~sample_every =
  let probing = Probe.sampling probe in
  let t =
    {
      probe;
      frun = (match resume.frun with Some f -> f | None -> Faults.start faults ~rng);
      start_time = resume.t0;
      horizon;
      max_events;
      counters =
        {
          events = 0;
          arrivals = 0;
          transfers = 0;
          completions = 0;
          departures = 0;
          aborted = 0;
          lost = 0;
          max_n = 0;
        };
      avg = Timeavg.create ~t0:resume.t0 ();
      samples = Vec.create ();
      clock = resume.t0;
      truncated = false;
      stop_requested = false;
      sample_every;
      next_sample = grid_start ~interval:sample_every ~grid_after:resume.grid_after;
      probing;
      next_probe =
        (if probing then
           grid_start ~interval:probe.Probe.interval ~grid_after:resume.grid_after
         else 0.0);
    }
  in
  if probe.Probe.tracing then
    Faults.set_observer t.frun (fun ~now ~up ->
        Probe.seed_toggle probe ~time:now ~up);
  t

(* One event loop: a handle, its model, its generator and its sampled
   phase timers — [drive]'s whole run, or one shard of [drive_sharded].
   The timers sample 1-in-256 so two clock reads never ride every event;
   with hists off each tick/tock is a dead branch. *)
type loop = {
  h : t;
  m : model;
  rng : Rng.t;
  rate_tm : Hist.timer;
  apply_tm : Hist.timer;
  sched_tm : Hist.timer;
}

let loop ~name h m rng =
  let hists = h.probe.Probe.hists in
  {
    h;
    m;
    rng;
    rate_tm = Hist.timer (Hist.get hists (name ^ "/total_rate"));
    apply_tm = Hist.timer (Hist.get hists (name ^ "/apply"));
    sched_tm = Hist.timer (Hist.get hists (name ^ "/scheduled"));
  }

(* The exponential race, bounded by [until] ([drive]: the horizon; a
   shard: its window end).  Returns with the clock at [until], or
   earlier when the model requested a stop.  Spending the event budget
   freezes the state ([truncated]): the rest of this call and every
   later one only walk the sampling grid.  The time-average is left
   open for the caller to close. *)
let race l ~until =
  let t = l.h and m = l.m and rng = l.rng in
  if t.truncated then begin
    record_samples_through t m until;
    t.clock <- until
  end
  else begin
    let c = t.counters in
    (* Stage the model's closures into locals once: the loop below calls
       them hundreds of millions of times, and a staged closure call is
       one indirect jump where [m.total_rate ()] is a field load plus an
       indirect jump per event. *)
    let total_rate = m.total_rate in
    let apply = m.apply in
    let next_scheduled = m.next_scheduled in
    let do_scheduled = m.scheduled in
    let rate_tm = l.rate_tm and apply_tm = l.apply_tm and sched_tm = l.sched_tm in
    let frun = t.frun in
    let budget = t.max_events in
    (* The clock lives in a local ref for the race and goes back to the
       handle when it returns: a local float ref stays unboxed, while
       every store to the handle's mixed-record [clock] field allocates.
       Nothing reads [t.clock] while the race runs. *)
    let clock = ref t.clock in
    let running = ref true in
    while !running do
      let rate_t0 = Hist.tick rate_tm in
      let total = total_rate () in
      Hist.tock rate_tm rate_t0;
      (* An idle model (an emptied shard, a dried-up swarm) never fires:
         its next event is at infinity. *)
      let dt = if total > 0.0 then Dist.exponential rng ~rate:total else infinity in
      let t_next = !clock +. dt in
      let sched = next_scheduled () in
      let toggle = Faults.next_toggle frun in
      if toggle <= t_next && toggle <= until && toggle <= sched && c.events < budget then begin
        (* The outage flips before the next event: advance to the toggle
           and redraw — valid by memorylessness of the exponential race.
           Budget-gated so an exhausted run truncates instead of walking
           the rest of the outage schedule. *)
        record_samples_through t m toggle;
        clock := toggle;
        Faults.toggle frun ~now:toggle
      end
      else if sched <= t_next && sched <= until then begin
        (* A scheduled event (dwell expiry) beats the race: a time
           barrier, like the toggle, but it consumes event budget. *)
        record_samples_through t m sched;
        clock := sched;
        c.events <- c.events + 1;
        let s_t0 = Hist.tick sched_tm in
        do_scheduled ~time:sched;
        Hist.tock sched_tm s_t0;
        if t.stop_requested then running := false
      end
      else if t_next > until || c.events >= budget then begin
        (* Past [until], or the event budget ran out before it: then the
           state is frozen from the clock on, which biases every
           time-based statistic.  Record that instead of truncating
           silently. *)
        if t_next <= until then t.truncated <- true;
        record_samples_through t m until;
        clock := until;
        running := false
      end
      else begin
        (* Inline grid guard: [record_samples_through] is a no-op unless a
           sample or probe point falls before this event, so the common
           event skips the call (and its two grid-walk loops) entirely.
           Equivalent because both inner loops test the same bounds. *)
        if t.next_sample <= t_next || (t.probing && t.next_probe <= t_next) then
          record_samples_through t m t_next;
        clock := t_next;
        c.events <- c.events + 1;
        let u = Rng.float rng *. total in
        let a_t0 = Hist.tick apply_tm in
        apply ~time:t_next ~u;
        Hist.tock apply_tm a_t0;
        if t.stop_requested then running := false
      end
    done;
    t.clock <- !clock
  end

let default_grid horizon = Float.max (horizon /. 200.0) 1e-9

let drive ?(probe = Probe.none) ?sample_every ?(max_events = 200_000_000) ?(resume = fresh)
    ~name ~rng ~faults ~horizon build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let sample_every = Option.value sample_every ~default:(default_grid horizon) in
  let t = make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events ~sample_every in
  let model, extra = build t in
  record_samples_through t model t.start_time;
  Profile.stop setup_span;
  let loop_span = Profile.start prof (name ^ "/event-loop") in
  race (loop ~name t model rng) ~until:horizon;
  Timeavg.close t.avg ~time:t.clock;
  model.finish ~time:t.clock;
  Profile.stop loop_span;
  let finish_span = Profile.start prof (name ^ "/finalise") in
  Faults.finish t.frun ~now:t.clock;
  let c = t.counters in
  let stats =
    {
      final_time = t.clock;
      events = c.events;
      arrivals = c.arrivals;
      transfers = c.transfers;
      completions = c.completions;
      departures = c.departures;
      time_avg_n = Timeavg.average t.avg;
      max_n = c.max_n;
      final_n = model.population ();
      truncated = t.truncated;
      stopped = t.stop_requested;
      outage_time = Faults.outage_time t.frun;
      aborted_peers = c.aborted;
      lost_transfers = c.lost;
      samples = Vec.to_array t.samples;
    }
  in
  Profile.stop finish_span;
  (stats, extra)

(* ------------------------------------------------------------------ *)
(* The sharded driver: one logical swarm split across [nshards] local
   event loops, synchronised by windows.  Each shard owns a handle, a
   generator split off the caller's rng in shard order, and a model;
   within a window it runs [race] bounded by the window end instead of
   the horizon.  Contacts whose downloader lives elsewhere become
   messages; at the window barrier the main domain delivers all of them
   in [(shard_id, seq)] order — outbox concatenation in shard order,
   each outbox in send order — then every shard refreshes its snapshot
   of the others' populations.  Windows ending at the window boundary
   rather than at the message's origin time is the approximation knob:
   shrinking [sync_every] tightens it.

   Determinism: shard streams are split from [rng] in shard order at
   startup; within a window a shard touches only its own slot; the
   barrier runs sequentially on the calling domain.  So the run is a
   pure function of (rng seed, nshards, sync window layout) — the same
   for any [jobs], which only picks how many domains execute the
   windows.  Redrawing the exponential race at each window boundary is
   valid by memorylessness, exactly like the outage-toggle redraw. *)

type 'msg shard_model = {
  sh_model : model;
  sh_deliver : time:float -> src:int -> 'msg -> unit;
      (** Apply one cross-shard message at the barrier; [time] is the
          barrier (window-end) time on this shard's clock. *)
  sh_sync : time:float -> populations:int array -> unit;
      (** Rate exchange: fresh per-shard populations after the barrier
          (the receiving shard's own entry is its live value). *)
}

type sharded_stats = {
  sh_stats : stats;  (** merged across shards; see field notes in the mli *)
  sh_events : int array;  (** per-shard event counts (partition proof) *)
  sh_final_n : int array;
  sh_messages : int;  (** cross-shard messages delivered *)
  sh_windows : int;  (** sync barriers executed *)
}

type 'msg shard_slot = {
  sl_loop : loop;
  sl_model : 'msg shard_model;
  sl_outbox : (float * int * 'msg) Vec.t;  (** (send time, dst, msg) in seq order *)
}

let drive_sharded ?(probes = fun _ -> Probe.none) ?sample_every ?(max_events = 200_000_000)
    ?sync_every ?(jobs = 1) ~name ~rng ~faults ~horizon ~nshards build =
  if nshards < 2 then
    invalid_arg "Engine.drive_sharded: nshards must be >= 2 (1 shard = the unsharded engine)";
  let sample_every = Option.value sample_every ~default:(default_grid horizon) in
  let sync_every =
    match sync_every with
    | Some dt when dt > 0.0 -> dt
    | Some dt -> invalid_arg (Printf.sprintf "Engine.drive_sharded: sync_every %g <= 0" dt)
    | None -> default_grid horizon
  in
  let budget = (max_events + nshards - 1) / nshards in
  (* The outage clockwork belongs to shard 0, where the fixed seed
     lives; the other shards keep only the memoryless fault components
     (churn, loss) and draw them from their own fault streams. *)
  let shard_faults i =
    if i = 0 then faults
    else Faults.make ~abort_rate:faults.Faults.abort_rate ~loss_prob:faults.Faults.loss_prob ()
  in
  (* Shard streams split off the caller's rng in shard order — the
     sharded counterpart of the runner's per-replication derivation. *)
  let rngs = Array.init nshards (fun _ -> Rng.split rng) in
  let handles =
    Array.init nshards (fun i ->
        make_handle ~probe:(probes i) ~resume:fresh ~rng:rngs.(i) ~faults:(shard_faults i)
          ~horizon ~max_events:budget ~sample_every)
  in
  let outboxes = Array.init nshards (fun _ -> Vec.create ()) in
  let messages = ref 0 in
  let slots_and_extras =
    Array.init nshards (fun i ->
        let send ~time ~dst msg =
          if dst < 0 || dst >= nshards || dst = i then
            invalid_arg "Engine.drive_sharded: bad message destination";
          Vec.push outboxes.(i) (time, dst, msg)
        in
        let sm, extra = build ~shard:i ~rng:rngs.(i) ~send handles.(i) in
        ( { sl_loop = loop ~name handles.(i) sm.sh_model rngs.(i); sl_model = sm;
            sl_outbox = outboxes.(i) },
          extra ))
  in
  let slots = Array.map fst slots_and_extras in
  let extras = Array.map snd slots_and_extras in
  Array.iter (fun s -> record_samples_through s.sl_loop.h s.sl_loop.m s.sl_loop.h.start_time) slots;
  let populations = Array.make nshards 0 in
  let windows = ref 0 in
  (* Window loop: parallel shard windows, then a sequential barrier. *)
  let w = ref 1 in
  let continue_ = ref true in
  while !continue_ do
    let wend = Float.min horizon (sync_every *. float_of_int !w) in
    Pool.run ~jobs nshards (fun i -> race slots.(i).sl_loop ~until:wend);
    (* Deliver cross-shard messages in (shard_id, seq) order: outbox
       concatenation in shard order, each outbox already in send order.
       Delivery consumes one receiver event per message. *)
    Array.iteri
      (fun src slot ->
        let ob = slot.sl_outbox in
        for j = 0 to Vec.length ob - 1 do
          let _t_sent, dst, msg = Vec.get ob j in
          incr messages;
          let d = slots.(dst) in
          let dc = d.sl_loop.h.counters in
          dc.events <- dc.events + 1;
          d.sl_model.sh_deliver ~time:wend ~src msg
        done;
        Vec.clear ob)
      slots;
    incr windows;
    Array.iteri (fun i s -> populations.(i) <- s.sl_loop.m.population ()) slots;
    Array.iter (fun s -> s.sl_model.sh_sync ~time:wend ~populations) slots;
    if wend >= horizon then continue_ := false else incr w
  done;
  let handles = Array.map (fun s -> s.sl_loop.h) slots in
  Array.iter
    (fun s ->
      let h = s.sl_loop.h in
      Timeavg.close h.avg ~time:horizon;
      s.sl_loop.m.finish ~time:horizon;
      Faults.finish h.frun ~now:horizon)
    slots;
  (* Merge.  Every shard walked the same sampling grid from 0 to the
     final time, so the per-shard sample arrays are pointwise summable;
     the population time-average is linear in the shard decomposition.
     max_n is a lower bound on the global peak: the larger of the summed
     grid's maximum (plus the final state) and every shard's own
     per-event maximum. *)
  let per_samples = Array.map (fun (h : t) -> Vec.to_array h.samples) handles in
  let grid_len = Array.length per_samples.(0) in
  Array.iter
    (fun a -> if Array.length a <> grid_len then failwith "Engine.drive_sharded: ragged sample grids")
    per_samples;
  let samples =
    Array.init grid_len (fun g ->
        let tg, _ = per_samples.(0).(g) in
        let n = ref 0 in
        Array.iter (fun a -> n := !n + snd a.(g)) per_samples;
        (tg, !n))
  in
  let sum f = Array.fold_left (fun acc h -> acc + f h.counters) 0 handles in
  let final_ns = Array.map (fun s -> s.sl_loop.m.population ()) slots in
  let final_n = Array.fold_left ( + ) 0 final_ns in
  let grid_max = Array.fold_left (fun m (_, n) -> Int.max m n) final_n samples in
  let max_n = Array.fold_left (fun m h -> Int.max m h.counters.max_n) grid_max handles in
  let stats =
    {
      final_time = horizon;
      events = sum (fun c -> c.events);
      arrivals = sum (fun c -> c.arrivals);
      transfers = sum (fun c -> c.transfers);
      completions = sum (fun c -> c.completions);
      departures = sum (fun c -> c.departures);
      time_avg_n = Array.fold_left (fun acc h -> acc +. Timeavg.average h.avg) 0.0 handles;
      max_n;
      final_n;
      truncated = Array.exists (fun (h : t) -> h.truncated) handles;
      stopped = false;
      outage_time = Faults.outage_time handles.(0).frun;
      aborted_peers = sum (fun c -> c.aborted);
      lost_transfers = sum (fun c -> c.lost);
      samples;
    }
  in
  ( {
      sh_stats = stats;
      sh_events = Array.map (fun h -> h.counters.events) handles;
      sh_final_n = final_ns;
      sh_messages = !messages;
      sh_windows = !windows;
    },
    extras )

type continuous = {
  c_advance : to_:float -> [ `Reached | `Stopped of float | `Step_limit ];
  c_population : unit -> float;
  c_extra_sample : time:float -> unit;
  c_probe_sample : time:float -> Probe.sample;
  c_toggled : unit -> unit;
  c_time_average : until:float -> float;
  c_finish : time:float -> unit;
}

(* The continuous-model counterpart of the event loop: instead of an
   exponential race the model integrates an ODE, and every shared-grid
   point (sample, probe), fault toggle, and the horizon becomes a time
   barrier the integrator lands on exactly — so the recorded trajectory
   shares the sampling-grid contract with the stochastic drivers and
   [p2psim report] consumes either without knowing which produced it. *)
let drive_continuous ?(probe = Probe.none) ?sample_every ?(resume = fresh) ~name ~rng ~faults
    ~horizon build =
  let prof = probe.Probe.profile in
  let setup_span = Profile.start prof (name ^ "/setup") in
  let sample_every =
    match sample_every with
    | Some dt -> dt
    | None -> Float.max ((horizon -. resume.t0) /. 200.0) 1e-9
  in
  let t = make_handle ~probe ~resume ~rng ~faults ~horizon ~max_events:max_int ~sample_every in
  let m, extra = build t in
  let pop_int () = int_of_float (Float.round (m.c_population ())) in
  let record time =
    record_through t ~population:pop_int ~extra_sample:m.c_extra_sample
      ~probe_sample:m.c_probe_sample time
  in
  observe t ~time:t.start_time ~n:(pop_int ());
  record t.start_time;
  Profile.stop setup_span;
  let loop_span = Profile.start prof (name ^ "/event-loop") in
  (* Barrier-to-barrier integrations are few (hundreds per run), so the
     advance timer is unsampled: every span is measured. *)
  let advance_tm = Hist.timer ~period:1 (Hist.get probe.Probe.hists (name ^ "/advance")) in
  let running = ref true in
  while !running do
    let toggle = Faults.next_toggle t.frun in
    let grid = Float.min t.next_sample (if t.probing then t.next_probe else infinity) in
    let barrier = Float.max t.clock (Float.min horizon (Float.min grid toggle)) in
    let adv_t0 = Hist.tick advance_tm in
    let outcome = m.c_advance ~to_:barrier in
    Hist.tock advance_tm adv_t0;
    match outcome with
    | `Stopped ts ->
        (* The model's own [until] predicate fired (hybrid handoff):
           stop exactly at the located crossing. *)
        t.clock <- ts;
        observe t ~time:ts ~n:(pop_int ());
        record ts;
        Timeavg.close t.avg ~time:ts;
        t.stop_requested <- true;
        running := false
    | `Step_limit ->
        (* The step budget ran out mid-flight: like stochastic event
           exhaustion, freeze the state through the horizon and flag. *)
        t.truncated <- true;
        observe t ~time:t.clock ~n:(pop_int ());
        t.clock <- horizon;
        record horizon;
        Timeavg.close t.avg ~time:horizon;
        running := false
    | `Reached ->
        t.clock <- barrier;
        observe t ~time:barrier ~n:(pop_int ());
        record barrier;
        if toggle <= barrier then begin
          Faults.toggle t.frun ~now:toggle;
          m.c_toggled ()
        end;
        if barrier >= horizon then begin
          Timeavg.close t.avg ~time:horizon;
          running := false
        end
  done;
  Profile.stop loop_span;
  let finish_span = Profile.start prof (name ^ "/finalise") in
  Faults.finish t.frun ~now:t.clock;
  m.c_finish ~time:t.clock;
  let c = t.counters in
  let stats =
    {
      final_time = t.clock;
      events = c.events;
      arrivals = c.arrivals;
      transfers = c.transfers;
      completions = c.completions;
      departures = c.departures;
      time_avg_n = m.c_time_average ~until:t.clock;
      max_n = c.max_n;
      final_n = pop_int ();
      truncated = t.truncated;
      stopped = t.stop_requested;
      outage_time = Faults.outage_time t.frun;
      aborted_peers = c.aborted;
      lost_transfers = c.lost;
      samples = Vec.to_array t.samples;
    }
  in
  Profile.stop finish_span;
  (stats, extra)
