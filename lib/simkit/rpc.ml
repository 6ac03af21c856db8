type config = {
  timeout_ms : float;
  max_attempts : int;
  backoff_base_ms : float;
  backoff_multiplier : float;
  jitter_frac : float;
}

let default_config =
  {
    timeout_ms = 1_000.0;
    max_attempts = 4;
    backoff_base_ms = 200.0;
    backoff_multiplier = 2.0;
    jitter_frac = 0.2;
  }

let validate_config c =
  if c.timeout_ms <= 0.0 then invalid_arg "Rpc: timeout_ms must be positive";
  if c.max_attempts < 1 then invalid_arg "Rpc: max_attempts must be at least 1";
  if c.backoff_base_ms < 0.0 then invalid_arg "Rpc: backoff_base_ms must be non-negative";
  if c.backoff_multiplier < 1.0 then invalid_arg "Rpc: backoff_multiplier must be >= 1";
  if c.jitter_frac < 0.0 || c.jitter_frac >= 1.0 then
    invalid_arg "Rpc: jitter_frac outside [0, 1)"

(* A counter written flat into the call trace and, for outcomes, mirrored
   dimensionally as [rpc_outcomes{outcome=...}].  Every cell resolves on
   first use, so a series appears exactly when it is first written. *)
type tally = int ref Lazy.t list

let count = List.iter (fun c -> incr (Lazy.force c))

type t = {
  config : config;
  transport : Transport.t;
  rng : Prelude.Prng.t option;
  trace : Trace.t;
  recorder : Flight_recorder.t option;
  spans : Span.sink;
  calls : tally;
  attempts : tally;
  retries : tally;
  no_target : tally;
  unserved : tally;
  ok : tally;
  timeouts : tally;
  gave_up : tally;
  latency : Metrics.stream Lazy.t list;  (* flat, then the labeled mirror *)
}

let create ?(config = default_config) ?rng ?labeled ?recorder ?(spans = Span.noop) transport =
  validate_config config;
  let trace = Trace.create () in
  let tally ?outcome name =
    lazy (Trace.counter_ref trace name)
    ::
    (match (labeled, outcome) with
    | Some m, Some o -> [ lazy (Metrics.counter_ref m "rpc_outcomes" ~labels:[ ("outcome", o) ]) ]
    | _ -> [])
  in
  {
    config;
    transport;
    rng;
    trace;
    recorder;
    spans;
    calls = tally "rpc_calls";
    attempts = tally "rpc_attempts";
    retries = tally "rpc_retries";
    no_target = tally ~outcome:"no_target" "rpc_no_target";
    unserved = tally ~outcome:"unserved" "rpc_unserved";
    ok = tally ~outcome:"ok" "rpc_ok";
    timeouts = tally ~outcome:"timeout" "rpc_timeouts";
    gave_up = tally ~outcome:"gave_up" "rpc_gave_up";
    latency =
      lazy (Trace.stream trace "rpc_latency_ms")
      :: Option.fold ~none:[]
           ~some:(fun m -> [ lazy (Metrics.stream m "rpc_latency_ms" ~labels:[ ("outcome", "ok") ]) ])
           labeled;
  }

let trace t = t.trace
let spans t = t.spans
let config t = t.config
let engine t = Transport.engine t.transport

(* Backoff before attempt [n+1] after attempt [n] timed out:
   base * multiplier^(n-1), spread by +-jitter_frac so a burst of calls that
   timed out together does not retry in lockstep (the thundering-herd
   avoidance every retry loop needs). *)
let backoff_ms t ~attempt =
  let raw =
    t.config.backoff_base_ms *. (t.config.backoff_multiplier ** float_of_int (attempt - 1))
  in
  match t.rng with
  | Some rng when t.config.jitter_frac > 0.0 ->
      let spread = t.config.jitter_frac *. ((2.0 *. Prelude.Prng.unit_float rng) -. 1.0) in
      raw *. (1.0 +. spread)
  | _ -> raw

let worst_case_ms c =
  let backoffs = ref 0.0 in
  for a = 1 to c.max_attempts - 1 do
    backoffs :=
      !backoffs
      +. (c.backoff_base_ms *. (c.backoff_multiplier ** float_of_int (a - 1)) *. (1.0 +. c.jitter_frac))
  done;
  (float_of_int c.max_attempts *. c.timeout_ms) +. !backoffs

(* Flight-recorder taps: every notable outcome leaves one event, stamped
   with the engine clock, so a post-breach dump shows which calls were
   timing out, failing over or dying against a downed server.  Call sites
   test [recording] first, so no argument list is built without a
   recorder. *)
let recording t = Option.is_some t.recorder

let record t ~args detail =
  match t.recorder with
  | None -> ()
  | Some r -> Flight_recorder.record r ~ts:(Engine.now (engine t)) ~kind:"rpc" ~args detail

let call ?parent ?request_parts ?reply_parts t ~src ~dst ~request_bytes ~reply_bytes
    ~handle ~on_reply ~on_give_up =
  let engine = engine t in
  (* Wire attribution: attempt 1 charges the caller's kind breakdown;
     every later attempt is overhead the retry loop added, so its bytes
     are relabeled wholesale as kind "retry" — the codec/delta work can
     then separate protocol cost from resilience cost. *)
  let request_parts_of ~attempt:n =
    match request_parts with
    | Some parts when n = 1 -> parts
    | Some parts -> [ ("retry", List.fold_left (fun acc (_, b) -> acc + b) 0 parts) ]
    | None when n > 1 -> [ ("retry", request_bytes) ]
    | None -> [ ("other", request_bytes) ]
  in
  let reply_parts_of v =
    match reply_parts with Some f -> f v | None -> [ ("other", reply_bytes v) ]
  in
  count t.calls;
  let started_at = Engine.now engine in
  (* One cell per call: the first reply to arrive settles it; later replies
     from slower attempts and stale timeout events are ignored. *)
  let settled = ref false in
  let give_up () =
    settled := true;
    count t.gave_up;
    if recording t then record t ~args:[ ("src", Span.Int src) ] "gave_up";
    on_give_up ()
  in
  let rec attempt n =
    if not !settled then begin
      if n > t.config.max_attempts then give_up ()
      else begin
        count t.attempts;
        if n > 1 then count t.retries;
        (* One child span per attempt: the retry index and per-attempt
           target make client-side failover visible as sibling spans of one
           trace.  Spans run on the engine clock, not the sink's. *)
        let span =
          Span.start_span t.spans ~name:"rpc_attempt" ~ts:(Engine.now engine) ?parent ~tid:src
            [ ("attempt", Span.Int n); ("src", Span.Int src) ]
        in
        let close outcome =
          Span.add_arg span "outcome" (Span.Str outcome);
          Span.finish ~ts:(Engine.now engine) span
        in
        (match dst ~attempt:n with
        | None ->
            (* No live target known right now; the backoff below doubles as
               a wait for one to come back. *)
            count t.no_target;
            if recording t then
              record t ~args:[ ("src", Span.Int src); ("attempt", Span.Int n) ] "no_target";
            close "no_target"
        | Some target ->
            Span.add_arg span "target" (Span.Int target);
            Transport.send_parts ~dir:"request" t.transport ~src ~dst:target
              ~parts:(request_parts_of ~attempt:n) (fun () ->
                (* The attempt's context is ambient while the server-side
                   handler runs, so its instrumentation parents under this
                   exact attempt without signature threading. *)
                match
                  Span.with_context t.spans (Span.context_of span) (fun () -> handle ~dst:target)
                with
                | None ->
                    (* The server was down when the request arrived: it is
                       consumed without a reply, exactly like a lost one. *)
                    count t.unserved;
                    if recording t then
                      record t
                        ~args:[ ("src", Span.Int src); ("dst", Span.Int target) ]
                        "unserved"
                | Some v ->
                    Transport.send_parts ~dir:"reply" t.transport ~src:target ~dst:src
                      ~parts:(reply_parts_of v) (fun () ->
                        if not !settled then begin
                          settled := true;
                          count t.ok;
                          List.iter
                            (fun s ->
                              Metrics.observe_stream (Lazy.force s)
                                (Engine.now engine -. started_at))
                            t.latency;
                          if recording t then
                            record t
                              ~args:
                                [
                                  ("src", Span.Int src);
                                  ("dst", Span.Int target);
                                  ("attempts", Span.Int n);
                                  ("latency_ms", Span.Float (Engine.now engine -. started_at));
                                ]
                              "ok";
                          close "ok";
                          on_reply v
                        end)));
        Engine.schedule engine ~delay:t.config.timeout_ms (fun () ->
            if not !settled then begin
              count t.timeouts;
              if recording t then
                record t ~args:[ ("src", Span.Int src); ("attempt", Span.Int n) ] "timeout";
              close "timeout";
              if n >= t.config.max_attempts then give_up ()
              else
                Engine.schedule engine ~delay:(backoff_ms t ~attempt:n) (fun () -> attempt (n + 1))
            end
            else
              (* The call settled through another attempt while this one was
                 in flight; [finish] is idempotent, so this only closes
                 spans that were left open (e.g. an unserved request). *)
              close "superseded")
      end
    end
  in
  attempt 1
