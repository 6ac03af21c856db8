(* The three workloads of the end-to-end benchmark.

   Every workload runs the full replicated stack in one process on one
   domain with the default tree backend:

     Protocol -> Admission -> Rpc -> Transport -> Cluster fan-out and
     anti-entropy -> Server -> registry (Path_tree)

   One call to [run] is one round: set-up (map, route caches, cluster,
   preload), the timed phase (the engine run that carries every client
   op), then the output checks.  The router map is fixed; the workload
   seed only draws the inputs the stack receives (arrival times,
   attachment routers, queried peers) and the jitter of the network and
   the RPC backoff, so every simulated quantity is a function of the seed.

   All arrivals are open loop: newcomers are independent, each op is due
   at a seeded time whatever the system is doing, and its latency is
   counted in simulated ms from that due time. *)

type workload = Steady_join | Refresh_query | Flash_batch

let workloads =
  [ ("steady-join", Steady_join); ("refresh-query", Refresh_query); ("flash-batch", Flash_batch) ]

type size = {
  routers : int;
  landmarks : int;
  replicas : int;
  k : int;
  sample : int;  (** Peers in the stretch and oracle sample. *)
  sync_period_ms : float;
  digest_period_ms : float;
  (* steady-join *)
  join_rate_per_s : float;
  join_window_ms : float;
  (* refresh-query *)
  preload : int;
  preload_chunk : int;
  query_rate_per_s : float;
  query_window_ms : float;
  (* flash-batch *)
  flash_base_per_s : float;
  flash_spike_per_s : float;
  flash_window_ms : float;
  service_rate_per_s : float;
  admission_batch : int;
  queue_cap : int;
}

let full =
  {
    routers = 4000;
    landmarks = 8;
    replicas = 3;
    k = 5;
    sample = 200;
    sync_period_ms = 1000.0;
    digest_period_ms = 250.0;
    join_rate_per_s = 1000.0;
    join_window_ms = 20_000.0;
    preload = 50_000;
    preload_chunk = 1000;
    query_rate_per_s = 4000.0;
    query_window_ms = 15_000.0;
    flash_base_per_s = 1000.0;
    flash_spike_per_s = 4000.0;
    flash_window_ms = 20_000.0;
    service_rate_per_s = 2000.0;
    admission_batch = 50;
    queue_cap = 2000;
  }

(* The smoke test's size: every mechanism still fires (restores, failover,
   shedding), in well under a second per round. *)
let tiny =
  {
    full with
    routers = 400;
    sample = 40;
    join_rate_per_s = 100.0;
    join_window_ms = 4000.0;
    preload = 600;
    preload_chunk = 100;
    query_rate_per_s = 100.0;
    query_window_ms = 5000.0;
    flash_base_per_s = 50.0;
    flash_spike_per_s = 400.0;
    flash_window_ms = 5000.0;
    service_rate_per_s = 200.0;
    admission_batch = 10;
    queue_cap = 200;
  }

(* The map is part of the environment, not of the inputs: one fixed seed,
   so figures from different workload seeds are comparable. *)
let map_seed = 20071210

(* What one round reports.  [model] holds simulated-ms, byte and ratio
   figures that depend only on the seed; [wall] the implementation's cost
   on this machine; [layers] the per-layer figures (span-based ones only
   in a traced round). *)
type round = {
  setup_s : float;
  offered : int;
  admitted : int;
  completed : int;
  gave_up : int;
  shed : int;
  wall : (string * float) list;
  model : (string * float) list;
  layers : (string * float) list;
  failures : string list;
}

(* --- The stack --------------------------------------------------------- *)

module Traced_tree = Traced_registry.Make (Nearby.Path_tree)

type env = {
  leaves : Topology.Graph.node array;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  engine : Simkit.Engine.t;
  metrics : Simkit.Metrics.t;
  transport : Simkit.Transport.t;
  cluster : Nearby.Cluster.t;
  rpc : Simkit.Rpc.t;
  protocol : Nearby.Protocol.t;
}

let build_env size ~rng ~traced =
  let map =
    Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params size.routers) ~seed:map_seed
  in
  let graph = map.graph in
  let oracle = Traceroute.Route_oracle.create graph in
  let place count salt =
    Nearby.Landmark.place graph Medium_degree ~count ~rng:(Prelude.Prng.create (map_seed + salt))
  in
  let landmarks = place size.landmarks 1 in
  let replica_routers = place size.replicas 2 in
  let client_router = map.core.(0) in
  (* The oracle builds one BFS sink tree per destination on first use.
     Every destination the run can address is warmed here, inside set-up:
     attachment routers (replies), landmarks (measurement), replicas and
     the failure-detector monitor. *)
  let warm dst = ignore (Traceroute.Route_oracle.route_length oracle ~src:client_router ~dst) in
  Array.iter warm map.leaves;
  Array.iter warm landmarks;
  Array.iter warm replica_routers;
  warm client_router;
  let engine = Simkit.Engine.create () in
  let metrics = Simkit.Metrics.create () in
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split rng) ~metrics engine oracle
  in
  let backend =
    if traced then (module Traced_tree : Nearby.Registry_intf.S)
    else (module Nearby.Path_tree : Nearby.Registry_intf.S)
  in
  let cluster =
    Nearby.Cluster.create ~metrics ~transport ~client_router
      ~make_server:(fun () -> Nearby.Server.create ~backend oracle ~landmarks)
      ~restore_server:(fun data ->
        Tracer.span Server_restore (fun () -> Nearby.Server.restore ~backend oracle data))
      ~routers:replica_routers ()
  in
  let rpc = Simkit.Rpc.create ~rng:(Prelude.Prng.split rng) transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  { leaves = map.leaves; oracle; landmarks; engine; metrics; transport; cluster; rpc; protocol }

(* --- Inputs ------------------------------------------------------------- *)

let arrival_times ~rng process ~until_ms =
  Array.of_list (Simkit.Workload.arrival_times ~rng process ~until_ms)

(* [n] uniform draws in [0, bound): attachment routers, queried peers. *)
let draws ~rng n bound = Array.init n (fun _ -> Prelude.Prng.int rng bound)

(* --- Op bookkeeping ----------------------------------------------------- *)

type ops = {
  due : float array;  (* simulated time each op was due *)
  settled : int array;  (* completions + give-ups + sheds seen per op *)
  latency : float array;  (* completion order *)
  done_ns : int array;  (* wall clock at each completion *)
  mutable completed : int;
  mutable gave_up : int;
  mutable shed : int;
  mutable served : int;
  waits : float array;  (* admission queueing delay, [served] of them *)
  mutable max_pending : int;
}

let make_ops due =
  let n = Array.length due in
  {
    due;
    settled = Array.make n 0;
    latency = Array.make n 0.0;
    done_ns = Array.make n 0;
    completed = 0;
    gave_up = 0;
    shed = 0;
    served = 0;
    waits = Array.make n 0.0;
    max_pending = 0;
  }

let note_pending ops engine =
  let p = Simkit.Engine.pending engine in
  if p > ops.max_pending then ops.max_pending <- p

let complete ops env i =
  ops.settled.(i) <- ops.settled.(i) + 1;
  if ops.settled.(i) = 1 then begin
    ops.latency.(ops.completed) <- Simkit.Engine.now env.engine -. ops.due.(i);
    ops.done_ns.(ops.completed) <- Clock.now_ns ();
    ops.completed <- ops.completed + 1;
    note_pending ops env.engine
  end

let give_up ops i =
  ops.settled.(i) <- ops.settled.(i) + 1;
  ops.gave_up <- ops.gave_up + 1

let shed ops i =
  ops.settled.(i) <- ops.settled.(i) + 1;
  ops.shed <- ops.shed + 1

let note_wait ops ~queued_ms =
  ops.waits.(ops.served) <- queued_ms;
  ops.served <- ops.served + 1

(* Arrival [i] fires at its due time and schedules arrival [i + 1], so the
   generator keeps one pending event however long the schedule is. *)
let install_arrivals engine due f =
  let n = Array.length due in
  let rec arrive i () =
    if i + 1 < n then Simkit.Engine.schedule_at engine ~time:due.(i + 1) (arrive (i + 1));
    f i
  in
  if n > 0 then Simkit.Engine.schedule_at engine ~time:due.(0) (arrive 0)

(* The benchmark's own anti-entropy schedule (in place of
   [Cluster.start_sync]), so each round and each digest check is a span:
   sync rounds every [sync_period_ms] from [first_sync], digest checks
   every [digest_period_ms] from [from], both up to [until]. *)
let install_sync env ops ~sync_period_ms ~first_sync ~digest_period_ms ~from ~until =
  let rec every period at f =
    if at <= until then
      Simkit.Engine.schedule_at env.engine ~time:at (fun () ->
          f ();
          note_pending ops env.engine;
          every period (at +. period) f)
  in
  every sync_period_ms first_sync (fun () ->
      Tracer.span Cluster_sync (fun () -> Nearby.Cluster.sync_round env.cluster));
  every digest_period_ms (from +. digest_period_ms) (fun () ->
      Tracer.span Cluster_digest_check (fun () -> ignore (Nearby.Cluster.digest_check env.cluster)))

(* --- Reading the stack's counters --------------------------------------- *)

let wire_kinds = [ "path_report"; "path_report_batch"; "query"; "reply"; "snapshot"; "retry"; "fd_probe" ]

let sum_series metrics name ~where =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = name && where labels then acc + Simkit.Metrics.counter metrics name ~labels else acc)
    0 (Simkit.Metrics.series metrics)

let kind_bytes env kind =
  sum_series env.metrics "wire_bytes_total" ~where:(fun l -> List.assoc_opt "kind" l = Some kind)

type counters = {
  events : int;
  messages : int;
  bytes : int;
  dropped : int;
  kinds : int list;
  restores : int;
  skipped : int;
  union : int;
  minor_words : float;
  major_words : float;
  major_gcs : int;
}

let read_counters env =
  let ct = Nearby.Cluster.trace env.cluster in
  {
    events = Simkit.Engine.processed env.engine;
    messages = Simkit.Transport.messages_sent env.transport;
    bytes = Simkit.Transport.bytes_sent env.transport;
    dropped = Simkit.Transport.messages_dropped env.transport;
    kinds = List.map (kind_bytes env) wire_kinds;
    restores = Simkit.Trace.counter ct "cluster_sync_restores";
    skipped = Simkit.Trace.counter ct "cluster_sync_skipped";
    union = Simkit.Trace.counter ct "cluster_sync_union";
    minor_words = Gc.minor_words ();
    major_words = (Gc.quick_stat ()).major_words;
    major_gcs = (Gc.quick_stat ()).major_collections;
  }

(* --- The timed phase ---------------------------------------------------- *)

type phase = { wall_ns : int; start_ns : int; before : counters; after : counters }

(* Each timed phase starts on a fresh major-GC cycle, so how much of the
   set-up's garbage the phase pays to mark and sweep does not depend on
   where the set-up left the collector.  The collection is not counted in
   [setup_s]: it is the benchmark's doing, not the system's. *)
let timed_phase env ~traced ~until =
  Gc.full_major ();
  let before = read_counters env in
  if traced then Tracer.start ();
  let start_ns = Clock.now_ns () in
  Simkit.Engine.run env.engine ~until;
  let stop_ns = Clock.now_ns () in
  Tracer.stop ();
  let after = read_counters env in
  { wall_ns = stop_ns - start_ns; start_ns; before; after }

(* --- Output checks ------------------------------------------------------ *)

(* Exact nearest-rank quantile of the first [n] entries. *)
let quantile values n q =
  if n = 0 then 0.0
  else begin
    let a = Array.sub values 0 n in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let check_cluster env size fail =
  Nearby.Cluster.sync_round env.cluster;
  let c = env.cluster in
  if Nearby.Cluster.live_count c <> size.replicas then fail "a replica is still down after the run";
  let d0 = Nearby.Server.digest (Nearby.Cluster.server_of c 0) in
  for i = 1 to Nearby.Cluster.replica_count c - 1 do
    if Nearby.Server.digest (Nearby.Cluster.server_of c i) <> d0 then
      fail (Printf.sprintf "replica %d digest differs from replica 0 after the final sync" i)
  done;
  match Nearby.Cluster.check_invariants c with
  | () -> ()
  | exception e -> fail ("Cluster.check_invariants: " ^ Printexc.to_string e)

let check_wire env fail =
  let by_kind = sum_series env.metrics "wire_bytes_total" ~where:(fun _ -> true) in
  let sent = Simkit.Transport.bytes_sent env.transport in
  if by_kind <> sent then
    fail (Printf.sprintf "per-kind wire bytes %d <> Transport.bytes_sent %d" by_kind sent)

let check_settled ops fail =
  let n = Array.length ops.due in
  let unsettled = Array.fold_left (fun acc s -> if s <> 1 then acc + 1 else acc) 0 ops.settled in
  if unsettled > 0 then fail (Printf.sprintf "%d ops did not settle exactly once" unsettled);
  if ops.completed + ops.gave_up + ops.shed <> n then
    fail
      (Printf.sprintf "completed %d + gave up %d + shed %d <> offered %d" ops.completed ops.gave_up
         ops.shed n)

(* Replica 0's answers for a seeded sample of its peers must equal those of
   a fresh single-node server over the default tree, built from replica
   0's registrations, both at the workload's k and at [stretch_k].  The
   [stretch_k] answers give the stretch: Fig. 2's D / Dclosest in router
   hops, summed over the sample.  [stretch_k] is well above the number of
   peers sharing an attachment router, so the ratio is not the trivial
   0 / 0 of co-located neighbours. *)
let stretch_k = 50

let check_oracle_and_stretch env size ~rng fail =
  let s0 = Nearby.Cluster.server_of env.cluster 0 in
  let fresh = Nearby.Server.create env.oracle ~landmarks:env.landmarks in
  let peers = Array.of_list (Nearby.Server.peer_ids s0) in
  let graph = Traceroute.Route_oracle.graph env.oracle in
  let on_router = Array.make (Topology.Graph.node_count graph) 0 in
  let router_of peer = (Option.get (Nearby.Server.info s0 peer)).attach_router in
  Array.iter
    (fun peer ->
      let info = Option.get (Nearby.Server.info s0 peer) in
      Nearby.Server.register_replica fresh ~peer ~attach_router:info.attach_router
        ~landmark:info.landmark ~path:info.recorded_path ~probes_spent:info.probes_spent;
      on_router.(info.attach_router) <- on_router.(info.attach_router) + 1)
    peers;
  let n = Array.length peers in
  let sample =
    Prelude.Prng.sample_without_replacement rng ~k:(min size.sample n) ~n
    |> Array.map (fun i -> peers.(i))
  in
  let d = ref 0 and d_closest = ref 0 in
  Array.iter
    (fun peer ->
      let answer k =
        let a = Nearby.Server.neighbors s0 ~peer ~k in
        if a <> Nearby.Server.neighbors fresh ~peer ~k then
          fail (Printf.sprintf "replica 0 answers peer %d differently from a fresh tree" peer);
        a
      in
      ignore (answer size.k);
      let answer = answer stretch_k in
      let r = router_of peer in
      let dist = Topology.Bfs.distances graph r in
      List.iter (fun (q, _) -> d := !d + dist.(router_of q)) answer;
      (* The |answer| closest other registered peers, walking routers in
         distance order. *)
      let by_dist =
        Array.of_list
          (List.filter_map
             (fun v ->
               let c = if v = r then on_router.(v) - 1 else on_router.(v) in
               if c > 0 then Some (dist.(v), c) else None)
             (List.init (Array.length on_router) Fun.id))
      in
      Array.sort compare by_dist;
      let need = ref (List.length answer) and i = ref 0 in
      while !need > 0 do
        let dv, c = by_dist.(!i) in
        let take = min c !need in
        d_closest := !d_closest + (take * dv);
        need := !need - take;
        incr i
      done)
    sample;
  if !d_closest = 0 then 1.0 else float_of_int !d /. float_of_int !d_closest

(* --- Metrics of one round ----------------------------------------------- *)

let per s n = if n = 0 then 0.0 else s /. float_of_int n
let per_i s n = per (float_of_int s) n

let round_result env ops phase ~traced ~setup_s ~failures ~stretch =
  let n = Array.length ops.due in
  let c = ops.completed in
  let b = phase.before and a = phase.after in
  let ops_per_s = float_of_int c /. (float_of_int phase.wall_ns /. 1e9) in
  let growth =
    let q = c / 4 in
    if q = 0 then 1.0
    else
      let first = float_of_int (ops.done_ns.(q - 1) - phase.start_ns) in
      let last = float_of_int (ops.done_ns.(c - 1) - ops.done_ns.(c - 1 - q)) in
      last /. first
  in
  let s0 = Nearby.Cluster.server_of env.cluster 0 in
  let probes = ref 0 in
  List.iter
    (fun p -> probes := !probes + (Option.get (Nearby.Server.info s0 p)).probes_spent)
    (Nearby.Server.peer_ids s0);
  let intro = Nearby.Server.introspection s0 in
  let rpc = Simkit.Rpc.trace env.rpc in
  let rpc_count name = Simkit.Trace.counter rpc name in
  let counted =
    [
      ("engine.events_per_op", per_i (a.events - b.events) c);
      ("engine.max_pending", float_of_int ops.max_pending);
      ("gc.major_collections", float_of_int (a.major_gcs - b.major_gcs));
      ("admission.shed_frac", per_i ops.shed n);
      ("admission.wait_p99_ms", quantile ops.waits ops.served 0.99);
      ("protocol.probes_per_join", per_i !probes (Nearby.Server.peer_count s0));
      ("rpc.attempts_per_call", per_i (rpc_count "rpc_attempts") (rpc_count "rpc_calls"));
      ("rpc.gave_up", float_of_int (rpc_count "rpc_gave_up"));
      ("transport.msgs_per_op", per_i (a.messages - b.messages) c);
      ("transport.dropped_msgs", float_of_int (a.dropped - b.dropped));
    ]
    @ List.map2
        (fun kind (x, y) -> ("wire.bytes_per_op." ^ kind, per_i (y - x) c))
        wire_kinds
        (List.combine b.kinds a.kinds)
    @ [
        ("cluster.restores", float_of_int (a.restores - b.restores));
        ("cluster.sync_skipped", float_of_int (a.skipped - b.skipped));
        ("cluster.union_entries", float_of_int (a.union - b.union));
        ("registry.approx_bytes_per_member", per_i intro.approx_bytes intro.members);
      ]
  in
  let spans =
    if not traced then []
    else begin
      let t = Tracer.summarise () in
      let ns kind = t.total_ns.(Tracer.kind_index kind) in
      let count kind = t.count.(Tracer.kind_index kind) in
      let items kind = t.items.(Tracer.kind_index kind) in
      let words kind = t.words.(Tracer.kind_index kind) in
      let ns_per_op kind = per_i (ns kind) c in
      [
        ("admission.submit_ns_per_op", ns_per_op Admission_submit);
        ("protocol.call_ns_per_op", per_i (ns Protocol_join + ns Protocol_join_many) c);
        ("rpc.call_ns_per_op", ns_per_op Rpc_call);
        ("cluster.sync_ns_per_op", ns_per_op Cluster_sync);
        ("cluster.sync_self_ns_per_op", per_i t.self_ns.(Tracer.kind_index Cluster_sync) c);
        ("cluster.sync_words_per_op", per (words Cluster_sync) c);
        ("cluster.digest_check_ns", per_i (ns Cluster_digest_check) (count Cluster_digest_check));
        ("server.restore_ns_per_op", ns_per_op Server_restore);
        ("server.neighbors_ns_per_query", per_i (ns Server_neighbors) (count Server_neighbors));
        ("registry.insert_ns_per_op.join", per_i (ns Registry_insert - t.sync_insert_ns) c);
        ("registry.insert_ns_per_op.sync", per_i t.sync_insert_ns c);
        ("registry.insert_calls", float_of_int (items Registry_insert));
        ("registry.words_per_op", per (words Registry_insert +. words Registry_query) c);
        ("registry.query_ns_per_op", ns_per_op Registry_query);
        ("registry.query_calls", float_of_int (items Registry_query));
        ("untimed_ns_per_op", per_i (phase.wall_ns - t.top_level_ns) c);
        ("trace.wall_ns_per_op", per_i phase.wall_ns c);
      ]
    end
  in
  {
    setup_s;
    offered = n;
    admitted = n - ops.shed;
    completed = c;
    gave_up = ops.gave_up;
    shed = ops.shed;
    wall =
      [
        ("ops_per_s", ops_per_s);
        ("ns_per_op_growth", growth);
        ("alloc_words_per_op", per (a.minor_words -. b.minor_words) c);
        ("major_words_per_op", per (a.major_words -. b.major_words) c);
      ];
    model =
      [
        ("latency_p50_ms", quantile ops.latency c 0.50);
        ("latency_p99_ms", quantile ops.latency c 0.99);
        ("completed_frac", per_i c n);
        ("wire_bytes_per_op", per_i (a.bytes - b.bytes) c);
        ("stretch_ratio", stretch);
      ];
    layers = counted @ spans;
    failures;
  }

(* Checks shared by every workload, run after the timed phase. *)
let finish size env ops phase ~rng ~traced ~setup_s =
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  check_settled ops fail;
  check_cluster env size fail;
  check_wire env fail;
  let stretch = check_oracle_and_stretch env size ~rng fail in
  round_result env ops phase ~traced ~setup_s ~failures:(List.rev !failures) ~stretch

(* --- steady-join -------------------------------------------------------- *)

(* Poisson singleton joins through a generously sized admission queue that
   never sheds, on a loss-free network, growing the fleet from empty. *)
let steady_join size ~seed ~traced =
  let t0 = Clock.now_ns () in
  let rng = Prelude.Prng.create seed in
  let env = build_env size ~rng ~traced in
  let input_rng = Prelude.Prng.split rng in
  let due =
    arrival_times ~rng:input_rng
      (Poisson { rate_per_s = size.join_rate_per_s })
      ~until_ms:size.join_window_ms
  in
  let leaf = draws ~rng:input_rng (Array.length due) (Array.length env.leaves) in
  let ops = make_ops due in
  let admission =
    Nearby.Admission.create ~engine:env.engine
      { capacity = 1_000_000; service_rate_per_s = 1_000_000.0; batch = 1000; policy = Drop_tail }
  in
  let horizon = size.join_window_ms +. 3000.0 in
  install_arrivals env.engine due (fun i ->
      Tracer.span Admission_submit (fun () ->
          Nearby.Admission.submit admission
            ~serve:(fun ~queued_ms ->
              note_wait ops ~queued_ms;
              Tracer.span Protocol_join (fun () ->
                  Nearby.Protocol.join env.protocol ~peer:i ~attach_router:env.leaves.(leaf.(i))
                    ~k:size.k
                    ~on_complete:(fun _ _ -> complete ops env i)
                    ~on_failure:(fun () -> give_up ops i)))
            ~shed:(fun ~reason:_ -> shed ops i)));
  (* Rounds at odd multiples of half a period: the arrivals are spread
     evenly over a window of whole periods, so the quarter boundaries of
     the op stream fall between two rounds, and which quarter pays for a
     round does not hinge on the seed. *)
  install_sync env ops ~sync_period_ms:size.sync_period_ms
    ~first_sync:(size.sync_period_ms /. 2.0) ~digest_period_ms:size.digest_period_ms ~from:0.0
    ~until:horizon;
  let setup_s = Clock.seconds_since t0 in
  let phase = timed_phase env ~traced ~until:horizon in
  finish size env ops phase ~rng:(Prelude.Prng.split rng) ~traced ~setup_s

(* --- refresh-query ------------------------------------------------------ *)

(* A preloaded fleet answering neighbour-refresh queries from registered
   peers: no writes; one replica crashes and recovers, then a loss burst. *)
let refresh_query size ~seed ~traced =
  let t0 = Clock.now_ns () in
  let rng = Prelude.Prng.create seed in
  let env = build_env size ~rng ~traced in
  let c = env.cluster in
  let input_rng = Prelude.Prng.split rng in
  (* Preload: measurements are deterministic per attachment router, so
     peers sharing a router share one. *)
  let memo = Hashtbl.create 1024 in
  let measure router =
    match Hashtbl.find_opt memo router with
    | Some m -> m
    | None ->
        let m =
          Nearby.Server.measure (Nearby.Cluster.measurement_server c) ~attach_router:router
        in
        Hashtbl.add memo router m;
        m
  in
  let peer_router =
    Array.map (Array.get env.leaves) (draws ~rng:input_rng size.preload (Array.length env.leaves))
  in
  let chunk = size.preload_chunk in
  let i = ref 0 in
  while !i < size.preload do
    let len = min chunk (size.preload - !i) in
    let entries =
      Array.init len (fun j ->
          let p = !i + j in
          (p, peer_router.(p), measure peer_router.(p)))
    in
    ignore (Nearby.Cluster.handle_registration_batch c ~replica:0 ~entries ~k:size.k);
    i := !i + len
  done;
  Simkit.Engine.run env.engine ~until:(Simkit.Engine.now env.engine +. 1000.0);
  Nearby.Cluster.sync_round c;
  let start = Simkit.Engine.now env.engine in
  let due =
    arrival_times ~rng:input_rng
      (Poisson { rate_per_s = size.query_rate_per_s })
      ~until_ms:size.query_window_ms
    |> Array.map (fun t -> start +. t)
  in
  let asker = draws ~rng:input_rng (Array.length due) size.preload in
  let ops = make_ops due in
  (* Crash the replica that is the first choice of the most attachment
     routers, so the crash forces timeouts and failover. *)
  let primaries = Array.make size.replicas 0 in
  Array.iter
    (fun src ->
      match Nearby.Cluster.target c ~src ~attempt:1 with
      | Some r -> primaries.(r) <- primaries.(r) + 1
      | None -> ())
    env.leaves;
  let victim = ref 0 in
  Array.iteri (fun r n -> if n > primaries.(!victim) then victim := r) primaries;
  let w = size.query_window_ms in
  let at frac = start +. (frac *. w) in
  Simkit.Fault.install
    {
      name = "crash-then-loss";
      steps =
        [
          { at = at 0.25; action = Crash_replica !victim };
          { at = at 0.5; action = Recover_replica !victim };
          { at = at 0.7; action = Set_loss 0.3 };
          { at = at 0.8; action = Set_loss 0.0 };
        ];
    }
    ~engine:env.engine
    ~hooks:
      {
        Simkit.Fault.null_hooks with
        crash_replica = Nearby.Cluster.crash c;
        recover_replica = Nearby.Cluster.recover c;
        set_loss = Simkit.Transport.set_loss_prob env.transport;
      };
  let horizon = start +. w +. 8000.0 in
  install_arrivals env.engine due (fun i ->
      let peer = asker.(i) in
      let src = peer_router.(peer) in
      let request = Nearby.Wire.Neighbor_request { peer; k = size.k } in
      let reply_msg neighbors = Nearby.Wire.Neighbor_reply { peer; neighbors } in
      Tracer.span Rpc_call (fun () ->
          Simkit.Rpc.call env.rpc ~src
            ~dst:(fun ~attempt ->
              Nearby.Cluster.target c ~src ~attempt |> Option.map (Nearby.Cluster.replica_router c))
            ~request_parts:[ (Nearby.Wire.kind request, Nearby.Wire.byte_size request) ]
            ~reply_parts:(fun r ->
              let m = reply_msg r in
              [ (Nearby.Wire.kind m, Nearby.Wire.byte_size m) ])
            ~request_bytes:(Nearby.Wire.byte_size request)
            ~reply_bytes:(fun r -> Nearby.Wire.byte_size (reply_msg r))
            ~handle:(fun ~dst ->
              Tracer.span Rpc_handle (fun () ->
                  match Nearby.Cluster.replica_at c ~router:dst with
                  | Some r when Nearby.Cluster.is_alive c r ->
                      Some
                        (Tracer.span Server_neighbors (fun () ->
                             Nearby.Server.neighbors (Nearby.Cluster.server_of c r) ~peer ~k:size.k))
                  | _ -> None))
            ~on_reply:(fun _ -> complete ops env i)
            ~on_give_up:(fun () -> give_up ops i)));
  (* One anti-entropy round in the middle of each quarter of the window. *)
  install_sync env ops ~sync_period_ms:(w /. 4.0) ~first_sync:(start +. (w /. 8.0))
    ~digest_period_ms:size.digest_period_ms ~from:start ~until:horizon;
  let setup_s = Clock.seconds_since t0 in
  let phase = timed_phase env ~traced ~until:horizon in
  finish size env ops phase ~rng:(Prelude.Prng.split rng) ~traced ~setup_s

(* --- flash-batch -------------------------------------------------------- *)

(* A flash crowd at twice the admission service rate, shed by the SLO
   policy; each drain tick's batch is one [Protocol.join_many]. *)
let flash_batch size ~seed ~traced =
  let t0 = Clock.now_ns () in
  let rng = Prelude.Prng.create seed in
  let env = build_env size ~rng ~traced in
  let w = size.flash_window_ms in
  let input_rng = Prelude.Prng.split rng in
  let due =
    arrival_times ~rng:input_rng
      (Flash
         {
           base_per_s = size.flash_base_per_s;
           spike_per_s = size.flash_spike_per_s;
           spike_at_s = 0.2 *. w /. 1000.0;
           spike_len_s = 0.3 *. w /. 1000.0;
         })
      ~until_ms:w
  in
  let leaf = draws ~rng:input_rng (Array.length due) (Array.length env.leaves) in
  let ops = make_ops due in
  let horizon = w +. (1000.0 *. float_of_int size.queue_cap /. size.service_rate_per_s) +. 3000.0 in
  let window_ms = 250.0 in
  let pending = ref [] in
  let flush = ref (fun () -> ()) in
  let admission =
    Nearby.Admission.create ~engine:env.engine
      ~timeseries:
        (Simkit.Timeseries.create ~capacity:(int_of_float (horizon /. window_ms) + 8) ~window_ms ())
      ~on_drain:(fun ~served:_ -> !flush ())
      {
        capacity = size.queue_cap;
        service_rate_per_s = size.service_rate_per_s;
        batch = size.admission_batch;
        policy =
          Nearby.Admission.slo_shed ~lookback:2 ~burn_threshold:0.5 ~poll_every_ms:(window_ms /. 2.0)
            ~wait_p99_limit_ms:150.0 ();
      }
  in
  (flush :=
     fun () ->
       let batch = Array.of_list (List.rev !pending) in
       pending := [];
       Tracer.span ~items:(Array.length batch) Protocol_join_many (fun () ->
           Nearby.Protocol.join_many env.protocol
             ~entries:(Array.map (fun i -> (i, env.leaves.(leaf.(i)))) batch)
             ~k:size.k
             ~on_complete:(fun peer _ _ -> complete ops env peer)
             ~on_failure:(fun () -> Array.iter (give_up ops) batch)));
  install_arrivals env.engine due (fun i ->
      Tracer.span Admission_submit (fun () ->
          Nearby.Admission.submit admission
            ~serve:(fun ~queued_ms ->
              note_wait ops ~queued_ms;
              pending := i :: !pending)
            ~shed:(fun ~reason:_ -> shed ops i)));
  (* Anti-entropy rounds start once the crowd has landed, so they only scan.
     During the crowd, whether a round restores a replica hinges on a
     fan-out being in flight at that instant, which swung the restore
     count from 5 to 13 over five seeds and every wall figure with it. *)
  install_sync env ops ~sync_period_ms:size.sync_period_ms ~first_sync:(w +. 2000.0)
    ~digest_period_ms:size.digest_period_ms ~from:0.0 ~until:horizon;
  let setup_s = Clock.seconds_since t0 in
  let phase = timed_phase env ~traced ~until:horizon in
  finish size env ops phase ~rng:(Prelude.Prng.split rng) ~traced ~setup_s

let run size workload ~seed ~traced =
  match workload with
  | Steady_join -> steady_join size ~seed ~traced
  | Refresh_query -> refresh_query size ~seed ~traced
  | Flash_batch -> flash_batch size ~seed ~traced
