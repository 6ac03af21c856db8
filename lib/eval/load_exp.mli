(** Open-loop load experiment: arrivals vs. admission control (ROADMAP 2).

    A {!Simkit.Workload} arrival process drives joins against a single
    management server through a {!Nearby.Admission} queue.  Each arrival
    measures client-side (round 1, memoized per attachment router — the
    measurement is deterministic per router, so a flash crowd of 100k
    peers does not re-traceroute 100k times), then submits its
    registration to the admission queue; each drain tick registers the
    whole batch with one {!Nearby.Server.register_measured_batch} call
    (the PR 6 batch path) and answers each newcomer's k-nearest query.

    Join latency is measured arrival-to-reply on the engine clock:
    measurement duration + queueing delay + the drain tick.  Under
    overload the queueing term dominates, which is exactly what the
    shedding policies differ on — drop-tail serves every admitted request
    however stale (p99 grows to the full queue drain time), while the
    SLO-driven shedder rejects arrivals as soon as the queueing-delay burn
    rate breaches, holding admitted p99 near the wait budget.

    Churn composes on top: sessions end in graceful leaves or regional
    mobility handovers (the peer leaves, re-measures at a leaf router
    whose closest landmark differs, and re-joins through the same
    admission queue).  Everything runs on the simulated clock from the
    seeded PRNG — results are deterministic in [seed]. *)

type config = {
  routers : int;
  landmark_count : int;
  k : int;
  arrival : Simkit.Workload.process;
  duration_ms : float;  (** Arrivals (and departures) stop here; the run
                            continues until the queue drains. *)
  service_rate_per_s : float;
  batch : int;
  queue_cap : int;
  policy : string;  (** One of {!policies}. *)
  deadline_ms : float option;  (** Deadline policy bound; default
                                   [0.8 * slo_budget_ms]. *)
  wait_budget_ms : float option;
      (** SLO shedder's queueing-delay p99 limit; default
          [0.15 * slo_budget_ms] (the shedder must trigger well under the
          join budget — requests already queued at breach time are still
          served late). *)
  slo_budget_ms : float;  (** The admitted-join p99 budget results are
                              judged against. *)
  churn : Simkit.Workload.churn;
  window_ms : float;  (** Timeseries window for the SLO shedder and the
                          windowed series. *)
  seed : int;
}

val default_config : config
(** 2000 routers, flash crowd at 2x the 400/s service rate, 10 s of
    arrivals, queue capacity 1200, SLO shedding against a 1000 ms join
    budget, no churn. *)

val quick_config : config
(** [default_config] on an 800-router map. *)

val policies : string list
(** ["drop-tail"; "deadline"; "slo"]. *)

type result = {
  arrival : string;
  policy : string;
  peak_rate_per_s : float;
  service_rate_per_s : float;
  saturation : float;  (** [peak_rate / service_rate]. *)
  offered : int;  (** Workload arrivals. *)
  submitted : int;  (** Admission submissions (arrivals + handovers). *)
  admitted : int;
  completed : int;  (** Registrations applied and answered. *)
  completion_rate : float;  (** [completed / admitted]; 1.0 when nothing
                                was admitted.  Every admitted request must
                                complete — this is the no-lost-work
                                invariant. *)
  shed : (string * int) list;  (** Per reason, alphabetical. *)
  shed_fraction : float;  (** [shed / submitted]. *)
  goodput_per_s : float;  (** Completions per second of arrival window. *)
  join_p50_ms : float;
  join_p99_ms : float;
  wait_p50_ms : float;  (** Queueing delay of admitted requests. *)
  wait_p99_ms : float;
  max_queue_depth : int;
  slo_budget_ms : float;
  p99_within_budget : bool;  (** [join_p99_ms <= slo_budget_ms]. *)
  slo_sheds_opened : int;
  leaves : int;
  handovers : int;
  final_peers : int;
}

type artifacts = {
  exp_trace : Simkit.Trace.t;
  server_trace : Simkit.Trace.t;
  metrics : Simkit.Metrics.t;  (** The admission queue's labeled series. *)
  timeseries : Simkit.Timeseries.t;
  recorder : Simkit.Flight_recorder.t;
  totals : Nearby.Admission.totals;
}

val run_instrumented : config -> result * artifacts
val run : config -> result

val result_json : result -> Simkit.Json.t
val gate : Regression.table
(** The BENCH_load.json gate table, per arrival × policy: completion rate
    (0.02), admitted-join p99 in simulated ms (0.15), goodput (0.1), shed
    fraction (0.2), and the headline bits exact — [p99_within_budget]
    (the SLO shedder holds the budget at 2x saturation, drop-tail does
    not) and sheds-iff-saturated. *)

val print : result -> unit
