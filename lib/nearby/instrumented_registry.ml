(* Timing middleware over any registry backend.

   [make] wraps a packed [Registry_intf.S] so every insert/remove/query is
   timed with the monotonic ns clock and written once, through stream
   handles, into one [Simkit.Metrics] store under uniform flat stream
   names — the same names for [tree], [naive], [dht], [super] and
   [sharded:N], which is what lets the metrics exporter and `bench obs`
   report identical per-backend latency quantiles.

   With a span sink attached, every operation additionally becomes one
   span, parented under whatever context is ambient ([Span.with_context] /
   [Span.with_span] in the caller) — so a store op shows up inside the join
   that caused it without any signature threading — and the recorded sample
   is tagged with that trace id, cross-linking the stream's tail exemplars
   to concrete traces.

   [wrap] is the zero-cost-when-disabled entry point: with neither a
   metrics store nor a span sink it returns the backend module unchanged
   (physically the same first-class module), so the disabled path is a
   direct call into the backend — no closure, no clock read, no branch. *)

let insert_ns = "registry_insert_ns"
let remove_ns = "registry_remove_ns"
let query_ns = "registry_query_ns"
let query_candidates = "registry_query_candidates"

let make ?(clock = Prelude.Clock.now_ns) ?(spans = Simkit.Span.noop) ?metrics
    (module B : Registry_intf.S) : (module Registry_intf.S) =
  (module struct
    type t = B.t

    let backend_name = B.backend_name
    let create = B.create
    let landmark = B.landmark

    (* One handle per stream, resolved on the first sample so a stream
       appears exactly when it is first written; none without a store. *)
    let stream name = Option.map (fun m -> lazy (Simkit.Metrics.stream m name)) metrics

    let record stream ~trace_id v =
      match stream with
      | Some s -> Simkit.Metrics.observe_traced (Lazy.force s) ~trace_id v
      | None -> ()

    let insert_stream = stream insert_ns
    let remove_stream = stream remove_ns
    let query_stream = stream query_ns
    let candidates_stream = stream query_candidates

    (* The span runs on the sink's simulated clock (duration ~0 there: a
       store op is instantaneous in simulated time); the wall-clock cost
       goes to the metrics stream, tagged with the span's trace so the
       stream's exemplars point back at the causing trace.  [with_span]
       closes the span even when the backend raises. *)
    let timed span_name stream f =
      Simkit.Span.with_span spans ~name:span_name ?parent:(Simkit.Span.current spans) []
        (fun ctx ->
          let t0 = clock () in
          let r = f () in
          record stream ~trace_id:ctx.Simkit.Span.trace_id (clock () -. t0);
          r)

    let insert t ~peer ~routers =
      timed "registry_insert" insert_stream (fun () -> B.insert t ~peer ~routers)

    let remove t peer = timed "registry_remove" remove_stream (fun () -> B.remove t peer)
    let mem = B.mem
    let member_count = B.member_count
    let path_of = B.path_of
    let iter_members = B.iter_members
    let dtree = B.dtree

    let observe_query result =
      record candidates_stream ~trace_id:0 (float_of_int (List.length result));
      result

    let query t ~routers ~k ?(exclude = fun _ -> false) () =
      observe_query (timed "registry_query" query_stream (fun () -> B.query t ~routers ~k ~exclude ()))

    let query_member t ~peer ~k =
      observe_query (timed "registry_query" query_stream (fun () -> B.query_member t ~peer ~k))

    (* A batch is one span (tagged with its size), not n: that is the point
       of batching, and span sinks stay proportional to call volume.  The
       per-op latency streams still receive one sample per operation — the
       amortized cost, batch time / n — so quantiles over a mixed
       singleton/batch workload stay comparable and a batched deployment
       shows up as the latency drop it actually is. *)
    let timed_batch span_name stream n f =
      if n = 0 then f ()
      else
        Simkit.Span.with_span spans ~name:span_name ?parent:(Simkit.Span.current spans)
          [ ("ops", Simkit.Span.Int n) ]
          (fun ctx ->
            let t0 = clock () in
            let r = f () in
            let per_op = (clock () -. t0) /. float_of_int n in
            for _ = 1 to n do
              record stream ~trace_id:ctx.Simkit.Span.trace_id per_op
            done;
            r)

    let insert_many t entries =
      timed_batch "registry_insert_many" insert_stream (Array.length entries) (fun () ->
          B.insert_many t entries)

    let query_many t ~queries ~k ?(exclude = fun _ _ -> false) () =
      let results =
        timed_batch "registry_query_many" query_stream (Array.length queries) (fun () ->
            B.query_many t ~queries ~k ~exclude ())
      in
      Array.iter (fun r -> ignore (observe_query r)) results;
      results

    (* Candidate offering into a caller-owned selector has no result list of
       its own; the caller times the whole scatter.  Pass through. *)
    let query_into = B.query_into

    let stats = B.stats
    let introspect = B.introspect
    let digest = B.digest
    let snapshot = B.snapshot
    let restore = B.restore
    let check_invariants = B.check_invariants
  end)

let wrap ?clock ?metrics ?spans backend =
  match (metrics, spans) with None, None -> backend | _ -> make ?clock ?spans ?metrics backend
