let log_src = Logs.Src.create "nearby.server" ~doc:"Management-server protocol events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type landmark_choice = Closest | Uniform

type peer_info = {
  attach_router : Topology.Graph.node;
  landmark : Topology.Graph.node;
  recorded_path : Traceroute.Path.t;
  probes_spent : int;
}

let digest_buckets = 256
let bucket_of peer = Hashtbl.hash peer land (digest_buckets - 1)

(* A bucket's peer table hashes the bits above the bucket index: every key
   in one bucket shares the low 8 bits of [Hashtbl.hash]. *)
module Peer_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash peer = Hashtbl.hash peer lsr 8
end)

(* The per-join series, resolved on first write so each appears exactly
   when it is first written. *)
type meters = {
  joins : int ref Lazy.t;
  probe_packets : int ref Lazy.t;
  wire_bytes : int ref Lazy.t;
  report_refresh : int ref Lazy.t;
  path_hops : Simkit.Metrics.stream Lazy.t;
  ping_round_ms : Simkit.Metrics.stream Lazy.t;
  traceroute_ms : Simkit.Metrics.stream Lazy.t;
  join_ms : Simkit.Metrics.stream Lazy.t;
}

let bump ?(n = 1) c = Lazy.force c := !(Lazy.force c) + n

type t = {
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  truncate : Traceroute.Truncate.strategy;
  probe_config : Traceroute.Probe.config;
  choice : landmark_choice;
  choice_rng : Prelude.Prng.t;
  landmark_ids : Topology.Graph.node array;
  backend : (module Registry_intf.S);
  registries : (Topology.Graph.node, Registry_intf.t) Hashtbl.t;
  (* The registered peers, split into anti-entropy buckets by [bucket_of].
     [bucket_digests.(b)] is the XOR of the entry digests of bucket [b],
     updated on every add and remove, so two replicas compare 256 digests
     and exchange only the entries of the buckets that differ. *)
  buckets : peer_info Peer_table.t array;
  bucket_digests : int64 array;
  mutable peer_count : int;
  (* Engine time at which this server last learned each peer's report:
     stamped on every registration path (join, replica apply, restore,
     anti-entropy repair, handover re-join), dropped on leave.  A side table, deliberately NOT
     part of [snapshot] — staleness is a property of the replica's view,
     not of the data, and serializing it would perturb every snapshot byte
     baseline.  [clock] defaults to a constant 0.0 until {!set_clock}
     wires the simulation engine in. *)
  registered_at : (int, float) Hashtbl.t;
  mutable clock : unit -> float;
  trace : Simkit.Trace.t;
  meters : meters;
  spans : Simkit.Span.sink;
  (* Peers whose join span is still open: closed by their first query (so
     the span encloses the whole two-round protocol), or by leave/flush.
     The context keeps the query and the close causally linked to the
     join's trace. *)
  open_joins : (int, float * Simkit.Span.context) Hashtbl.t;
}

let create ?(truncate = Traceroute.Truncate.Full) ?(probe_config = Traceroute.Probe.default_config)
    ?latency ?(choice = Closest) ?(backend = (module Path_tree : Registry_intf.S))
    ?(spans = Simkit.Span.noop) oracle ~landmarks =
  if Array.length landmarks = 0 then invalid_arg "Server.create: no landmarks";
  let distinct = Hashtbl.create 8 in
  Array.iter
    (fun lmk ->
      if Hashtbl.mem distinct lmk then invalid_arg "Server.create: duplicate landmark";
      Hashtbl.add distinct lmk ())
    landmarks;
  let trace = Simkit.Trace.create () in
  let counter name = lazy (Simkit.Trace.counter_ref trace name) in
  let stream name = lazy (Simkit.Trace.stream trace name) in
  let meters =
    {
      joins = counter "join";
      probe_packets = counter "probe_packets";
      wire_bytes = counter "wire_bytes";
      report_refresh = counter "report_refresh";
      path_hops = stream "path_hops";
      ping_round_ms = stream "ping_round_ms";
      traceroute_ms = stream "traceroute_ms";
      join_ms = stream "join_ms";
    }
  in
  let registries = Hashtbl.create (Array.length landmarks) in
  Array.iter
    (fun lmk -> Hashtbl.add registries lmk (Registry_intf.create ~trace backend ~landmark:lmk))
    landmarks;
  {
    oracle;
    latency;
    truncate;
    probe_config;
    choice;
    choice_rng = Prelude.Prng.create 0x5eed;
    landmark_ids = Array.copy landmarks;
    backend;
    registries;
    buckets = Array.init digest_buckets (fun _ -> Peer_table.create 16);
    bucket_digests = Array.make digest_buckets Registry_intf.empty_digest;
    peer_count = 0;
    registered_at = Hashtbl.create 256;
    clock = (fun () -> 0.0);
    trace;
    meters;
    spans;
    open_joins = Hashtbl.create 16;
  }

let set_clock t clock = t.clock <- clock

(* Stamp a peer's report as learned now without counting a refresh: state
   transfer (restore, anti-entropy repair) is not a client refresh. *)
let stamp_quiet t peer = Hashtbl.replace t.registered_at peer (t.clock ())

(* Stamp (or re-stamp) a peer's report as learned now.  Counted so the
   staleness view can report a per-window refresh rate. *)
let stamp t peer =
  stamp_quiet t peer;
  bump t.meters.report_refresh

let registration_time t peer = Hashtbl.find_opt t.registered_at peer
let iter_registration_times t f = Hashtbl.iter f t.registered_at

let graph t = Traceroute.Route_oracle.graph t.oracle
let landmarks t = Array.copy t.landmark_ids
let peer_count t = t.peer_count
let mem t peer = Peer_table.mem t.buckets.(bucket_of peer) peer
let info t peer = Peer_table.find_opt t.buckets.(bucket_of peer) peer
let iter_peers t f = Array.iter (Peer_table.iter f) t.buckets
let fold_peers t f init = Array.fold_left (fun acc tbl -> Peer_table.fold f tbl acc) init t.buckets
let trace t = t.trace
let registry_of t lmk = Hashtbl.find t.registries lmk

let backend_name t =
  let module B = (val t.backend : Registry_intf.S) in
  B.backend_name

(* Uniform per-backend metrics: the per-landmark [stats] assoc lists summed
   into one view, whatever the backend. *)
let registry_stats t =
  Registry_intf.merge_stats
    (Hashtbl.fold (fun _ reg acc -> Registry_intf.stats reg :: acc) t.registries [])

(* The per-landmark registries partition the peers, so the bucket-wise
   merge (occupancies add, hot lists re-rank) is the whole-server truth. *)
let introspection t =
  Registry_intf.merge_introspections
    (Hashtbl.fold (fun _ reg acc -> Registry_intf.introspect reg :: acc) t.registries [])

(* The per-landmark registries partition the peers, so the XOR-merge of
   their digests is the whole-server content digest — the value replicas
   compare to detect divergence. *)
let digest t =
  Hashtbl.fold
    (fun _ reg acc -> Registry_intf.combine_digests acc (Registry_intf.digest reg))
    t.registries Registry_intf.empty_digest

let peer_ids t = fold_peers t (fun peer _ acc -> peer :: acc) [] |> List.sort compare

(* Everything one join measured, kept so spans and per-phase stats can
   report simulated durations alongside the recorded path. *)
type measurement = {
  lmk : Topology.Graph.node;
  reduced : Traceroute.Path.t;
  cost : int;  (* total probe packets *)
  round1_pings : int;
  ping_rtt_ms : float;  (* round-1 duration: RTT to the winning landmark *)
  traceroute_ms : float;
  full_hops : int;
}

(* Round 1 + recording: ping all landmarks, traceroute to the winner,
   truncate per the configured decreased-tool strategy. *)
let record_path ?rng t ~attach_router =
  let lmk, ping_rtt_ms =
    match t.choice with
    | Closest ->
        Landmark.closest t.oracle ?latency:t.latency ?rng ~landmarks:t.landmark_ids attach_router
    | Uniform -> (Prelude.Prng.choose t.choice_rng t.landmark_ids, 0.0)
  in
  let probe =
    Traceroute.Probe.run ~config:t.probe_config ?latency:t.latency ?rng t.oracle ~src:attach_router ~dst:lmk
  in
  let full_hops = Traceroute.Path.hop_count probe.path in
  let reduced = Traceroute.Truncate.apply ~graph:(graph t) t.truncate probe.path in
  (* Probe cost: one ping per landmark (round 1) plus the per-hop packets the
     decreased tool would really send. *)
  let round1_pings = match t.choice with Closest -> Array.length t.landmark_ids | Uniform -> 0 in
  let cost =
    round1_pings + (Traceroute.Truncate.probe_cost t.truncate ~full_hops * t.probe_config.probes_per_hop)
  in
  (* Traceroute duration: the measured RTT when a latency table produced
     one, else the hop-count convention (1 ms per link, there and back). *)
  let traceroute_ms =
    match probe.rtt_ms with Some rtt -> rtt | None -> 2.0 *. float_of_int full_hops
  in
  { lmk; reduced; cost; round1_pings; ping_rtt_ms; traceroute_ms; full_hops }

let measure = record_path
let measurement_landmark m = m.lmk
let measurement_path m = m.reduced
let measurement_probes m = m.cost
let measurement_duration_ms m = m.ping_rtt_ms +. m.traceroute_ms

let registrable_path ~landmark path =
  (* The tree stores identified routers only; an incomplete trace is repaired
     by appending the landmark itself (the newcomer knows whom it probed). *)
  let routers = Traceroute.Path.known_routers path in
  let n = Array.length routers in
  if n > 0 && routers.(n - 1) = landmark then routers
  else Array.append routers [| landmark |]

let flip_bucket t ~peer ~routers =
  let b = bucket_of peer in
  t.bucket_digests.(b) <-
    Registry_intf.combine_digests t.bucket_digests.(b) (Registry_intf.entry_digest ~peer ~routers);
  b

(* Every add path records the peer through here, after its registry
   insert of [routers], so the peers table and the peer's bucket change
   together. *)
let add_entry t ~peer ~routers info =
  Peer_table.add t.buckets.(flip_bucket t ~peer ~routers) peer info;
  t.peer_count <- t.peer_count + 1

let remove_entry t ~peer (info : peer_info) =
  Registry_intf.remove (registry_of t info.landmark) peer;
  Hashtbl.remove t.registered_at peer;
  let routers = registrable_path ~landmark:info.landmark info.recorded_path in
  Peer_table.remove t.buckets.(flip_bucket t ~peer ~routers) peer;
  t.peer_count <- t.peer_count - 1

(* The batch registry write: one [insert_many] per landmark over
   [(peer, landmark, routers)] entries, landmarks in first-appearance
   order and entries in input order within each.  Returns the number of
   landmarks written. *)
let insert_grouped t entries =
  let by_landmark = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (peer, landmark, routers) ->
      match Hashtbl.find_opt by_landmark landmark with
      | Some group -> group := (peer, routers) :: !group
      | None ->
          Hashtbl.add by_landmark landmark (ref [ (peer, routers) ]);
          order := landmark :: !order)
    entries;
  List.iter
    (fun lmk ->
      let group = Array.of_list (List.rev !(Hashtbl.find by_landmark lmk)) in
      Registry_intf.insert_many (registry_of t lmk) group)
    (List.rev !order);
  Hashtbl.length by_landmark

(* Emit the still-open join span of [peer], closing it at the current span
   clock; the span then encloses ping_round, traceroute, register and (when
   one happened before the close) the peer's first query. *)
let close_join_span t ~peer =
  match Hashtbl.find_opt t.open_joins peer with
  | None -> ()
  | Some (t0, ctx) ->
      Hashtbl.remove t.open_joins peer;
      let now = Simkit.Span.now t.spans in
      let args =
        match info t peer with
        | None -> [ ("peer", Simkit.Span.Int peer) ]
        | Some info ->
            [
              ("peer", Simkit.Span.Int peer);
              ("landmark", Simkit.Span.Int info.landmark);
              ("probes_spent", Simkit.Span.Int info.probes_spent);
              ("hops", Simkit.Span.Int (Traceroute.Path.hop_count info.recorded_path));
            ]
      in
      Simkit.Span.emit t.spans ~name:"join" ~ts:t0 ~dur:(now -. t0) ~tid:peer ~ctx args

let flush_spans t =
  Hashtbl.fold (fun peer _ acc -> peer :: acc) t.open_joins []
  |> List.iter (fun peer -> close_join_span t ~peer)

(* The per-join counters and per-phase streams of the two-round protocol,
   in simulated milliseconds. *)
let count_join t (r : measurement) =
  bump t.meters.joins;
  bump ~n:r.cost t.meters.probe_packets;
  let observe s v = Simkit.Metrics.observe_stream (Lazy.force s) v in
  observe t.meters.path_hops (float_of_int (Traceroute.Path.hop_count r.reduced));
  observe t.meters.ping_round_ms r.ping_rtt_ms;
  observe t.meters.traceroute_ms r.traceroute_ms;
  observe t.meters.join_ms (r.ping_rtt_ms +. r.traceroute_ms)

(* Round 2 server side: store a client-measured path and answer the join
   counters/spans.  Split from [join] so a replicated cluster can measure
   once at the client and register the same measurement on any replica. *)
let register_measured ?parent t ~peer ~attach_router (r : measurement) =
  if mem t peer then
    invalid_arg "Server.register_measured: peer already registered";
  let landmark = r.lmk and recorded_path = r.reduced and probes_spent = r.cost in
  let routers = registrable_path ~landmark recorded_path in
  (* The join span's context roots the server-side subtree — under [parent]
     (the protocol/cluster span that carried the request here) when given,
     a fresh trace otherwise.  The registry write runs with the register
     span ambient, so timing middleware parents its op spans correctly. *)
  let join_ctx = Simkit.Span.context t.spans ?parent () in
  let register_ctx = Simkit.Span.context t.spans ~parent:join_ctx () in
  Simkit.Span.with_context t.spans register_ctx (fun () ->
      Registry_intf.insert (registry_of t landmark) ~peer ~routers);
  let info = { attach_router; landmark; recorded_path; probes_spent } in
  add_entry t ~peer ~routers info;
  stamp t peer;
  Log.debug (fun m ->
      m "join peer=%d router=%d landmark=%d hops=%d probes=%d" peer attach_router landmark
        (Traceroute.Path.hop_count recorded_path)
        probes_spent);
  count_join t r;
  bump ~n:(Wire.byte_size (Wire.Path_report { peer; path = recorded_path })) t.meters.wire_bytes;
  if Simkit.Span.enabled t.spans then begin
    let open Simkit.Span in
    let t0 = now t.spans in
    emit t.spans ~name:"ping_round" ~ts:t0 ~dur:r.ping_rtt_ms ~tid:peer
      ~ctx:(context t.spans ~parent:join_ctx ())
      [
        ("peer", Int peer);
        ("landmark", Int landmark);
        ("landmarks_pinged", Int r.round1_pings);
        ("rtt_ms", Float r.ping_rtt_ms);
        ("probes_spent", Int r.round1_pings);
      ];
    let t1 = t0 +. r.ping_rtt_ms in
    emit t.spans ~name:"traceroute" ~ts:t1 ~dur:r.traceroute_ms ~tid:peer
      ~ctx:(context t.spans ~parent:join_ctx ())
      [
        ("peer", Int peer);
        ("full_hops", Int r.full_hops);
        ("recorded_hops", Int (Traceroute.Path.hop_count recorded_path));
        ("probes_spent", Int (r.cost - r.round1_pings));
      ];
    emit t.spans ~name:"register" ~ts:(t1 +. r.traceroute_ms) ~tid:peer ~ctx:register_ctx
      [
        ("peer", Int peer);
        ("landmark", Int landmark);
        ("routers", Int (Array.length routers));
        ("probes_spent", Int probes_spent);
      ];
    advance t.spans (r.ping_rtt_ms +. r.traceroute_ms);
    Hashtbl.replace t.open_joins peer (t0, join_ctx)
  end;
  info

let join ?rng t ~peer ~attach_router =
  if mem t peer then invalid_arg "Server.join: peer already registered";
  register_measured t ~peer ~attach_router (measure ?rng t ~attach_router)

(* Replication apply: a peer measured and registered elsewhere lands here
   verbatim.  No join counters or spans — this is cluster traffic, not a
   protocol join — only the [replica_register] counter. *)
let register_replica t ~peer ~attach_router ~landmark ~path ~probes_spent =
  if mem t peer then
    invalid_arg "Server.register_replica: peer already registered";
  if not (Array.mem landmark t.landmark_ids) then
    invalid_arg "Server.register_replica: unknown landmark";
  let routers = registrable_path ~landmark path in
  Registry_intf.insert (registry_of t landmark) ~peer ~routers;
  add_entry t ~peer ~routers { attach_router; landmark; recorded_path = path; probes_spent };
  stamp t peer;
  Simkit.Trace.incr t.trace "replica_register"

(* Batch round 2: a whole array of client-measured joins applied in one
   pass.  Per-peer effects (peers table, join/probe/path counters, the
   per-phase latency streams) are exactly [register_measured]'s, but the
   registry write is one [insert_many] per landmark, the wire accounting
   charges one packed [Path_report_batch] instead of n separate reports,
   and with spans enabled the batch emits a single "register_batch" span
   (no per-peer phase spans, no open join to close later).  The span clock
   advances by the slowest measurement — the batch is one round, its peers
   measured concurrently.  Returns the peer infos in entry order. *)
let register_measured_batch ?parent t entries =
  let n = Array.length entries in
  let batch_seen = Hashtbl.create (2 * n) in
  Array.iter
    (fun (peer, _, _) ->
      if mem t peer || Hashtbl.mem batch_seen peer then
        invalid_arg "Server.register_measured: peer already registered";
      Hashtbl.add batch_seen peer ())
    entries;
  let routed =
    Array.map
      (fun (peer, _, (r : measurement)) ->
        (peer, r.lmk, registrable_path ~landmark:r.lmk r.reduced))
      entries
  in
  let batch_ctx = Simkit.Span.context t.spans ?parent () in
  let landmarks =
    Simkit.Span.with_context t.spans batch_ctx (fun () ->
        insert_grouped t (Array.to_list routed))
  in
  let infos =
    Array.mapi
      (fun i (peer, attach_router, (r : measurement)) ->
        let info =
          {
            attach_router;
            landmark = r.lmk;
            recorded_path = r.reduced;
            probes_spent = r.cost;
          }
        in
        let _, _, routers = routed.(i) in
        add_entry t ~peer ~routers info;
        stamp t peer;
        count_join t r;
        info)
      entries
  in
  let reports =
    Array.to_list (Array.map (fun (peer, _, (r : measurement)) -> (peer, r.reduced)) entries)
  in
  bump ~n:(Wire.byte_size (Wire.Path_report_batch { reports })) t.meters.wire_bytes;
  Log.debug (fun m -> m "join batch n=%d landmarks=%d" n landmarks);
  if Simkit.Span.enabled t.spans && n > 0 then begin
    let open Simkit.Span in
    let dur =
      Array.fold_left
        (fun acc (_, _, (r : measurement)) -> Float.max acc (r.ping_rtt_ms +. r.traceroute_ms))
        0.0 entries
    in
    emit t.spans ~name:"register_batch" ~ts:(now t.spans) ~dur ~ctx:batch_ctx
      [ ("ops", Int n); ("landmarks", Int landmarks) ];
    advance t.spans dur
  end;
  infos

(* Apply [(peer, info)] entries known to be fresh: one [insert_many] per
   landmark, then the peers, buckets and stamps. *)
let apply_replica_entries t ~stamp entries =
  List.iter
    (fun (_, info) ->
      if not (Array.mem info.landmark t.landmark_ids) then
        invalid_arg "Server.register_replica: unknown landmark")
    entries;
  let routed =
    List.map
      (fun (peer, info) ->
        (peer, info.landmark, registrable_path ~landmark:info.landmark info.recorded_path))
      entries
  in
  ignore (insert_grouped t routed);
  List.iter2
    (fun (peer, info) (_, _, routers) ->
      add_entry t ~peer ~routers info;
      stamp peer)
    entries routed

(* A replica write: stamped as a refresh and counted. *)
let apply_replica_writes t entries =
  apply_replica_entries t ~stamp:(stamp t) entries;
  Simkit.Trace.add_count t.trace "replica_register" (List.length entries)

(* Batch replication apply: [register_replica] semantics with one
   [insert_many] per landmark.  Entries whose peer is already present are
   skipped — the idempotence a replayed fan-out needs — and the count of
   entries actually applied is returned. *)
let register_replica_batch t entries =
  let batch_seen = Hashtbl.create 16 in
  let fresh =
    List.filter_map
      (fun (peer, attach_router, landmark, recorded_path, probes_spent) ->
        if mem t peer || Hashtbl.mem batch_seen peer then None
        else begin
          Hashtbl.add batch_seen peer ();
          Some (peer, { attach_router; landmark; recorded_path; probes_spent })
        end)
      (Array.to_list entries)
  in
  apply_replica_writes t fresh;
  List.length fresh

(* --- Anti-entropy buckets ---------------------------------------------- *)

let differing_buckets t other =
  List.filter
    (fun b -> not (Int64.equal t.bucket_digests.(b) other.bucket_digests.(b)))
    (List.init digest_buckets Fun.id)

let iter_bucket t b f = Peer_table.iter f t.buckets.(b)

(* Union: pull in [from]'s entries in [buckets] whose peer [t] lacks, as
   replica writes.  Entries [t] holds with other content are left to the
   catch-up, which runs the other way. *)
let absorb t ~from ~buckets =
  let missing = ref [] in
  List.iter
    (fun b ->
      iter_bucket from b (fun peer info ->
          if not (mem t peer) then missing := (peer, info) :: !missing))
    buckets;
  let missing = List.rev !missing in
  apply_replica_writes t missing;
  missing

(* Catch-up: within [buckets], drop what [source] lacks or holds
   differently, then apply what [t] now lacks.  Applied entries are stamped
   now without counting a refresh, as a restore stamps; entries [t] already
   held keep their stamps. *)
let repair t ~source ~buckets =
  let stale = ref [] and shipped = ref [] in
  List.iter
    (fun b ->
      iter_bucket t b (fun peer held ->
          if info source peer <> Some held then stale := (peer, held) :: !stale);
      iter_bucket source b (fun peer wanted ->
          if info t peer <> Some wanted then shipped := (peer, wanted) :: !shipped))
    buckets;
  List.iter (fun (peer, info) -> remove_entry t ~peer info) !stale;
  let shipped = List.rev !shipped in
  apply_replica_entries t ~stamp:(stamp_quiet t) shipped;
  shipped

(* Landmarks ordered by hop distance from the peer's landmark: the top-up
   order when the home tree runs dry. *)
let topup_order t ~home =
  let others = Array.to_list t.landmark_ids |> List.filter (fun l -> l <> home) in
  List.sort
    (fun a b ->
      compare
        (Traceroute.Route_oracle.route_length t.oracle ~src:home ~dst:a)
        (Traceroute.Route_oracle.route_length t.oracle ~src:home ~dst:b))
    others

let neighbors_of_path t ~path ~k ?(exclude = fun _ -> false) () =
  Simkit.Trace.incr t.trace "query";
  let landmark = path.Traceroute.Path.dst in
  let routers = registrable_path ~landmark path in
  let home =
    match Hashtbl.find_opt t.registries landmark with
    | Some reg -> reg
    | None -> invalid_arg "Server.neighbors_of_path: unknown landmark"
  in
  let result = Registry_intf.query home ~routers ~k ~exclude () in
  if List.length result >= k then result
  else begin
    (* Top up from the other landmark registries, closest landmark first. *)
    let missing = ref (k - List.length result) in
    let already = Hashtbl.create 16 in
    List.iter (fun (p, _) -> Hashtbl.add already p ()) result;
    let extra = ref [] in
    List.iter
      (fun lmk ->
        if !missing > 0 then begin
          let reg = registry_of t lmk in
          (* Ascending peer id, not table order: the answer must not depend
             on the backend's internal hashing. *)
          let members = ref [] in
          Registry_intf.iter_members reg (fun p -> members := p :: !members);
          List.iter
            (fun p ->
              if !missing > 0 && (not (Hashtbl.mem already p)) && not (exclude p) then begin
                Hashtbl.add already p ();
                extra := (p, max_int) :: !extra;
                decr missing;
                Simkit.Trace.incr t.trace "cross_tree_topup"
              end)
            (List.sort compare !members)
        end)
      (topup_order t ~home:landmark);
    result @ List.rev !extra
  end

let neighbors t ~peer ~k =
  match info t peer with
  | None -> raise Not_found
  | Some info ->
      (* The query joins the peer's still-open join trace when there is
         one; a later re-query starts a trace of its own.  Running the
         lookup with the context ambient parents any registry op spans. *)
      let parent =
        Option.map (fun (_, ctx) -> ctx) (Hashtbl.find_opt t.open_joins peer)
      in
      let query_ctx = Simkit.Span.context t.spans ?parent () in
      let reply =
        Simkit.Span.with_context t.spans query_ctx (fun () ->
            neighbors_of_path t ~path:info.recorded_path ~k ~exclude:(fun p -> p = peer) ())
      in
      bump t.meters.wire_bytes
        ~n:
          (Wire.byte_size (Wire.Neighbor_request { peer; k })
          + Wire.byte_size
              (Wire.Neighbor_reply
                 { peer; neighbors = List.map (fun (p, d) -> (p, min d 0x3FFFFFF)) reply }));
      if Simkit.Span.enabled t.spans then begin
        let open Simkit.Span in
        let tq = now t.spans in
        let dtree_best = match reply with (_, d) :: _ -> d | [] -> -1 in
        emit t.spans ~name:"query" ~ts:tq ~tid:peer ~ctx:query_ctx
          [
            ("peer", Int peer);
            ("k", Int k);
            ("candidates", Int (List.length reply));
            ("dtree_best", Int dtree_best);
            ("probes_spent", Int info.probes_spent);
          ];
        (* The first query completes the newcomer's discovery: close its
           join span here so the span covers the whole protocol. *)
        close_join_span t ~peer;
        advance t.spans 1.0
      end;
      reply

let reverse_introductions t ~peer ~k =
  match info t peer with
  | None -> raise Not_found
  | Some info ->
      let reg = registry_of t info.landmark in
      (* Candidates: anyone near the newcomer (take extra in case of ties);
         keep those whose own k-NN now contains the newcomer. *)
      let nearby = Registry_intf.query_member reg ~peer ~k:(2 * k) in
      List.filter
        (fun (candidate, _) ->
          Registry_intf.query_member reg ~peer:candidate ~k
          |> List.exists (fun (p, _) -> p = peer))
        nearby
      |> List.filteri (fun i _ -> i < k)

let leave t ~peer =
  match info t peer with
  | None -> raise Not_found
  | Some info ->
      close_join_span t ~peer;
      remove_entry t ~peer info;
      Log.debug (fun m -> m "leave peer=%d landmark=%d" peer info.landmark);
      Simkit.Trace.incr t.trace "leave"

let handover ?rng t ~peer ~attach_router =
  if not (mem t peer) then raise Not_found;
  leave t ~peer;
  let info = join ?rng t ~peer ~attach_router in
  Simkit.Trace.incr t.trace "handover";
  info

let check_invariants t =
  Hashtbl.iter (fun _ reg -> Registry_intf.check_invariants reg) t.registries;
  iter_peers t (fun peer (info : peer_info) ->
      if not (Registry_intf.mem (registry_of t info.landmark) peer) then
        failwith (Printf.sprintf "peer %d missing from its landmark tree" peer);
      Array.iter
        (fun lmk ->
          if lmk <> info.landmark && Registry_intf.mem (registry_of t lmk) peer then
            failwith (Printf.sprintf "peer %d registered in a foreign tree" peer))
        t.landmark_ids);
  (* Each bucket holds only its own peers and its digest matches a
     recomputation from them; the buckets fold to the registries' content
     digest. *)
  Array.iteri
    (fun b tbl ->
      let recomputed =
        Peer_table.fold
          (fun peer (info : peer_info) acc ->
            if bucket_of peer <> b then
              failwith (Printf.sprintf "peer %d filed in bucket %d" peer b);
            let routers = registrable_path ~landmark:info.landmark info.recorded_path in
            Registry_intf.combine_digests acc (Registry_intf.entry_digest ~peer ~routers))
          tbl Registry_intf.empty_digest
      in
      if not (Int64.equal recomputed t.bucket_digests.(b)) then
        failwith (Printf.sprintf "bucket %d digest differs from its peers" b))
    t.buckets;
  if Array.fold_left (fun acc tbl -> acc + Peer_table.length tbl) 0 t.buckets <> t.peer_count then
    failwith "peer count differs from the buckets";
  let folded =
    Array.fold_left Registry_intf.combine_digests Registry_intf.empty_digest t.bucket_digests
  in
  if not (Int64.equal folded (digest t)) then
    failwith "bucket digests do not fold to the server digest"

(* --- Persistence ------------------------------------------------------ *)

let snapshot_version = 1

let snapshot t =
  let w = Prelude.Codec.Writer.create ~capacity:4096 () in
  let open Prelude.Codec.Writer in
  u8 w snapshot_version;
  list w (varint w) (Array.to_list t.landmark_ids);
  let entries = fold_peers t (fun peer info acc -> (peer, info) :: acc) [] in
  let entries = List.sort compare entries in
  list w
    (fun (peer, info) ->
      varint w peer;
      varint w info.attach_router;
      varint w info.landmark;
      varint w info.probes_spent;
      bytes w (Wire.encode (Wire.Path_report { peer; path = info.recorded_path })))
    entries;
  contents w

let restore ?truncate ?probe_config ?latency ?choice ?backend ?spans oracle data =
  let open Prelude.Codec.Reader in
  let ( let* ) = Result.bind in
  let r = of_string data in
  let result =
    let* version = u8 r in
    if version <> snapshot_version then
      Error (Malformed (Printf.sprintf "unsupported snapshot version %d" version))
    else
      let* landmark_list = list r varint in
      let* entries =
        list r (fun r ->
            let* peer = varint r in
            let* attach_router = varint r in
            let* landmark = varint r in
            let* probes_spent = varint r in
            let* encoded_path = bytes r in
            Ok (peer, attach_router, landmark, probes_spent, encoded_path))
      in
      if not (is_exhausted r) then Error (Malformed "trailing bytes")
      else Ok (landmark_list, entries)
  in
  match result with
  | Error e -> Error (error_to_string e)
  | Ok (landmark_list, entries) -> (
      match
        create ?truncate ?probe_config ?latency ?choice ?backend ?spans oracle
          ~landmarks:(Array.of_list landmark_list)
      with
      | exception Invalid_argument msg -> Error msg
      | t -> (
          let rebuild () =
            List.iter
              (fun (peer, attach_router, landmark, probes_spent, encoded_path) ->
                match Wire.decode encoded_path with
                | Ok (Wire.Path_report { peer = p; path }) when p = peer ->
                    if not (Array.mem landmark t.landmark_ids) then
                      failwith "snapshot references an unknown landmark";
                    let routers = registrable_path ~landmark path in
                    Registry_intf.insert (registry_of t landmark) ~peer ~routers;
                    add_entry t ~peer ~routers
                      { attach_router; landmark; recorded_path = path; probes_spent };
                    stamp_quiet t peer
                | Ok _ -> failwith "snapshot entry is not a path report"
                | Error e -> failwith e)
              entries
          in
          match rebuild () with
          | () -> Ok t
          | exception Failure msg -> Error msg
          | exception Invalid_argument msg -> Error msg))
