(** Declarative service-level objectives evaluated over {!Timeseries}.

    A spec names a windowed series and a bound; evaluation is burn-rate
    style: over the last [lookback] retained windows, a spec breaches when
    the fraction of data-bearing windows that violate the bound reaches
    [burn_threshold].  Ratio objectives instead aggregate window counts
    across the whole lookback (completion-rate style), since the numerator
    and denominator events of one logical operation can land in different
    windows.

    Specs are parsed from the [--slo] CLI mini-language by {!of_string};
    the stateful {!monitor} turns repeated {!poll}s into breach / clear
    edge events — the trigger {!Flight_recorder} dumps hang off. *)

type objective =
  | Quantile_max of { series : string; q : float; limit : float }
      (** Per-window quantile must stay at or under [limit].  Only
          [q] in {0.5, 0.9, 0.99} is tracked by {!Timeseries}. *)
  | Mean_max of { series : string; limit : float }
  | Mean_min of { series : string; floor : float }
  | Ratio_min of { num : string; den : string; floor : float }
      (** Aggregate [count(num) / count(den)] over the lookback must stay
          at or above [floor] (e.g. join completion rate). *)

type spec = {
  name : string;
  objective : objective;
  lookback : int;  (** Windows considered, newest-last; [0] = all retained. *)
  burn_threshold : float;  (** Violating fraction that constitutes a breach. *)
}

val spec : ?name:string -> ?lookback:int -> ?burn_threshold:float -> objective -> spec
(** Defaults: [lookback = 0] (all retained windows), [burn_threshold = 0.5],
    and a descriptive [name] derived from the objective.
    @raise Invalid_argument on a negative lookback or a threshold outside
    (0, 1]. *)

type status = {
  spec : spec;
  evaluated : int;  (** Windows with data inside the lookback (always 0 or 1
                        for [Ratio_min], which aggregates). *)
  violating : int;
  burn_rate : float;
  worst : float;  (** Most out-of-bound value seen; [nan] when none. *)
  breached : bool;  (** [evaluated > 0] and [burn_rate >= burn_threshold]. *)
}

val evaluate : Timeseries.t -> spec -> status
val check : Timeseries.t -> spec list -> status list

(** {2 Stateful monitoring} *)

type monitor

val monitor : spec list -> monitor

val poll :
  ?on_breach:(status -> unit) -> ?on_clear:(status -> unit) -> monitor -> Timeseries.t ->
  status list
(** Re-evaluate every spec; [on_breach] / [on_clear] fire only on the
    transition edges, not on every breached poll. *)

val breached_names : monitor -> string list
(** Names currently in breach, alphabetical. *)

(** {2 Parsing and rendering} *)

val of_string : string -> (spec, string) result
(** The [--slo] mini-language:
    - ["join_p99_ms=500"] — p99 of series [join_ms] capped at 500 (the
      [_p50]/[_p90]/[_p99] tag is cut out of the series name);
    - ["audit_recall_at_k>=0.9"] — window means floored;
    - ["rpc_latency_ms<=40"] — window means capped;
    - ["join_completed/join_started>=0.99"] — aggregate count ratio floor. *)

val of_string_exn : string -> spec
(** @raise Invalid_argument on a parse error. *)

val describe_objective : objective -> string
val status_line : status -> string
val status_json : status -> Json.t
