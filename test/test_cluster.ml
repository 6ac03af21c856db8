(* Cluster: replicated management tier — direct-path equivalence, write
   fan-out, crash/failover, anti-entropy, and join termination under loss. *)

let detector_config =
  { Simkit.Failure_detector.heartbeat_period_ms = 100.0; timeout_ms = 350.0; heartbeat_bytes = 32 }

let rpc_config =
  {
    Simkit.Rpc.timeout_ms = 100.0;
    max_attempts = 4;
    backoff_base_ms = 50.0;
    backoff_multiplier = 2.0;
    jitter_frac = 0.0;
  }

type fixture = {
  map : Topology.Gen_magoni.t;
  oracle : Traceroute.Route_oracle.t;
  landmarks : Topology.Graph.node array;
  replica_routers : Topology.Graph.node array;
  engine : Simkit.Engine.t;
  transport : Simkit.Transport.t;
}

let fixture ?(routers = 300) ?(replicas = 3) ?rng ?loss_prob ~seed () =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let place_rng = Prelude.Prng.create (seed + 1000) in
  let landmarks =
    Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:3 ~rng:place_rng
  in
  let replica_routers =
    Nearby.Landmark.place map.graph Nearby.Landmark.High_degree ~count:replicas ~rng:place_rng
  in
  let engine = Simkit.Engine.create () in
  let transport = Simkit.Transport.create ?rng ?loss_prob engine oracle in
  { map; oracle; landmarks; replica_routers; engine; transport }

let make_server fx () = Nearby.Server.create fx.oracle ~landmarks:fx.landmarks

let make_cluster ?(detector_config = detector_config) fx =
  Nearby.Cluster.create ~detector_config ~transport:fx.transport
    ~client_router:fx.map.core.(0) ~make_server:(make_server fx)
    ~routers:fx.replica_routers ()

(* Run [peers] joins through [protocol], one every [spacing] ms, and return
   (completed replies by peer, failed count). *)
let run_joins ?(spacing = 10.0) fx protocol ~peers ~k ~horizon =
  let replies = Hashtbl.create peers in
  let failed = ref 0 in
  for peer = 0 to peers - 1 do
    Simkit.Engine.schedule_at fx.engine ~time:(float_of_int peer *. spacing) (fun () ->
        Nearby.Protocol.join protocol ~peer
          ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves)
          ~k
          ~on_complete:(fun _info reply -> Hashtbl.replace replies peer reply)
          ~on_failure:(fun () -> incr failed))
  done;
  Simkit.Engine.run fx.engine ~until:horizon;
  (replies, !failed)

(* Arrival spacing wide enough that every join finishes before the next
   one starts (join delays are tens of ms on these maps): registration
   order is then the arrival order in every implementation, so replies can
   be compared content-for-content. *)
let serial_spacing = 500.0

let test_direct_path_matches_plain_server () =
  (* The 1-replica direct path must reproduce the pre-cluster protocol
     exactly: same neighbor replies, same server-side accounting. *)
  let fx = fixture ~seed:21 () in
  let peers = 15 and k = 4 in
  let reference = make_server fx () in
  let expected =
    List.init peers (fun peer ->
        ignore
          (Nearby.Server.join reference ~peer
             ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves));
        Nearby.Server.neighbors reference ~peer ~k)
  in
  let server = make_server fx () in
  let protocol =
    Nearby.Protocol.create ~engine:fx.engine ~server_router:fx.replica_routers.(0) server
  in
  let replies, failed =
    run_joins ~spacing:serial_spacing fx protocol ~peers ~k ~horizon:60_000.0
  in
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "all completed" peers (Hashtbl.length replies);
  List.iteri
    (fun peer expect ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "peer %d reply identical" peer)
        expect (Hashtbl.find replies peer))
    expected;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " counter identical")
        (Simkit.Trace.counter (Nearby.Server.trace reference) name)
        (Simkit.Trace.counter (Nearby.Server.trace server) name))
    [ "join"; "query"; "probe_packets"; "wire_bytes" ]

let test_resilient_single_replica_loss_free_matches_direct () =
  (* A 1-replica cluster behind the RPC layer with a clean network keeps
     the same replies and the same server accounting as the direct path —
     the RPC machinery must not change results, only survive faults. *)
  let direct = fixture ~replicas:1 ~seed:22 () in
  let reference = make_server direct () in
  let protocol_direct =
    Nearby.Protocol.create ~engine:direct.engine ~server_router:direct.replica_routers.(0)
      reference
  in
  let peers = 15 and k = 4 in
  let expected, failed_direct =
    run_joins ~spacing:serial_spacing direct protocol_direct ~peers ~k ~horizon:60_000.0
  in
  Alcotest.(check int) "direct all complete" 0 failed_direct;
  let fx = fixture ~replicas:1 ~seed:22 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let replies, failed =
    run_joins ~spacing:serial_spacing fx protocol ~peers ~k ~horizon:60_000.0
  in
  Alcotest.(check int) "resilient all complete" 0 failed;
  for peer = 0 to peers - 1 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "peer %d reply identical" peer)
      (Hashtbl.find expected peer) (Hashtbl.find replies peer)
  done;
  (* Byte-identical registered state: same landmark, same recorded path,
     same probe cost for every peer. *)
  let server = Nearby.Cluster.server_of cluster 0 in
  for peer = 0 to peers - 1 do
    let info s = Option.get (Nearby.Server.info s peer) in
    let a = info reference and b = info server in
    Alcotest.(check bool)
      (Printf.sprintf "peer %d registration identical" peer)
      true
      (a.landmark = b.landmark && a.recorded_path = b.recorded_path
     && a.probes_spent = b.probes_spent && a.attach_router = b.attach_router)
  done;
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " counter identical")
        (Simkit.Trace.counter (Nearby.Server.trace reference) name)
        (Simkit.Trace.counter (Nearby.Server.trace server) name))
    [ "join"; "query"; "probe_packets"; "wire_bytes" ];
  Alcotest.(check int) "single attempt per join" peers
    (Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_attempts")

let test_fan_out_replicates_to_all () =
  let fx = fixture ~seed:23 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let peers = 20 in
  let _, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  (* Loss-free network: the write fan-out alone (no anti-entropy ran) must
     land every registration on every replica. *)
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d holds all peers" i)
      peers
      (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  done;
  Alcotest.(check bool) "consistent" true (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.check_invariants cluster;
  let trace = Nearby.Cluster.trace cluster in
  Alcotest.(check int) "2 replication sends per join" (peers * 2)
    (Simkit.Trace.counter trace "cluster_replicate_send");
  Alcotest.(check int) "all applied" (peers * 2)
    (Simkit.Trace.counter trace "cluster_replicate_apply")

let test_crash_primary_fails_over () =
  (* Replica 0 is down across the middle of the arrival window; joins keep
     completing via the other replicas and the cluster converges once the
     primary is restored and a sync round runs. *)
  let fx = fixture ~seed:24 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  Simkit.Engine.schedule_at fx.engine ~time:50.0 (fun () -> Nearby.Cluster.crash cluster 0);
  Simkit.Engine.schedule_at fx.engine ~time:2_000.0 (fun () -> Nearby.Cluster.recover cluster 0);
  let peers = 30 in
  let replies, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "every join completed" peers (Hashtbl.length replies);
  Alcotest.(check int) "none failed" 0 failed;
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    Alcotest.(check bool) (Printf.sprintf "replica %d live" i) true (Nearby.Cluster.is_alive cluster i);
    Alcotest.(check int)
      (Printf.sprintf "replica %d holds all peers" i)
      peers
      (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster i))
  done;
  Nearby.Cluster.check_invariants cluster

let test_anti_entropy_heals_stale_replica () =
  (* Replica 2 is dead for the whole arrival window, so it misses every
     fan-out write; one sync round after recovery repairs it, bucket by
     bucket, from the most complete replica. *)
  let fx = fixture ~seed:25 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  Nearby.Cluster.crash cluster 2;
  let peers = 20 in
  let _, failed = run_joins fx protocol ~peers ~k:4 ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  Nearby.Cluster.recover cluster 2;
  Alcotest.(check int) "stale replica missed the writes" 0
    (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster 2));
  Alcotest.(check bool) "inconsistent before sync" false (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  Alcotest.(check int) "healed" peers
    (Nearby.Server.peer_count (Nearby.Cluster.server_of cluster 2));
  let trace = Nearby.Cluster.trace cluster in
  Alcotest.(check bool) "restore happened" true
    (Simkit.Trace.counter trace "cluster_sync_restores" >= 1);
  Alcotest.(check bool) "recovery time recorded" true
    (match Simkit.Trace.summary trace "cluster_recovery_ms" with
    | Some s -> s.count = 1
    | None -> false);
  Nearby.Cluster.check_invariants cluster

(* --- Anti-entropy repair ------------------------------------------------ *)

(* One newcomer's measurement from [attach_router], registered verbatim on
   [server] as a replica write. *)
let register_measurement server ~peer ~attach_router m =
  Nearby.Server.register_replica server ~peer ~attach_router
    ~landmark:(Nearby.Server.measurement_landmark m)
    ~path:(Nearby.Server.measurement_path m)
    ~probes_spent:(Nearby.Server.measurement_probes m)

(* Two measurements of distinct recorded paths: the same peer id
   registered with either is the same-ids, different-content divergence. *)
let two_paths fx =
  let probe = make_server fx () in
  let leaves = fx.map.leaves in
  let m0 = Nearby.Server.measure probe ~attach_router:leaves.(0) in
  let rec differing i =
    let m = Nearby.Server.measure probe ~attach_router:leaves.(i) in
    if Nearby.Server.measurement_path m <> Nearby.Server.measurement_path m0 then (leaves.(i), m)
    else differing (i + 1)
  in
  ((leaves.(0), m0), differing 1)

let test_consistent_compares_content () =
  let fx = fixture ~seed:28 () in
  let cluster = make_cluster fx in
  let (r0, m0), (r1, m1) = two_paths fx in
  for i = 0 to Nearby.Cluster.replica_count cluster - 1 do
    let server = Nearby.Cluster.server_of cluster i in
    register_measurement server ~peer:1 ~attach_router:r0 m0;
    if i = 1 then register_measurement server ~peer:2 ~attach_router:r1 m1
    else register_measurement server ~peer:2 ~attach_router:r0 m0
  done;
  let ids i = Nearby.Server.peer_ids (Nearby.Cluster.server_of cluster i) in
  Alcotest.(check (list int)) "same peer ids everywhere" (ids 0) (ids 1);
  Alcotest.(check bool) "one differing path is inconsistent" false
    (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.sync_round cluster;
  Alcotest.(check bool) "consistent after sync" true (Nearby.Cluster.consistent cluster);
  Alcotest.(check bool) "replica 1 took the source's path" true
    (Nearby.Server.info (Nearby.Cluster.server_of cluster 1) 2
    = Nearby.Server.info (Nearby.Cluster.server_of cluster 0) 2);
  Nearby.Cluster.check_invariants cluster

let test_repair_in_place_keeps_stamps () =
  (* Replicas 1 and 2 miss one registration.  The repair must patch the
     very server objects the cluster started with, ship the missing entry
     stamped at repair time without counting a client refresh, and leave
     the entries they already held with their original stamps. *)
  let fx = fixture ~seed:29 () in
  let cluster = make_cluster fx in
  let servers = Array.init 3 (Nearby.Cluster.server_of cluster) in
  let (r0, m0), (r1, m1) = two_paths fx in
  Array.iter (fun s -> register_measurement s ~peer:1 ~attach_router:r0 m0) servers;
  Simkit.Engine.schedule_at fx.engine ~time:500.0 (fun () ->
      register_measurement servers.(0) ~peer:2 ~attach_router:r1 m1);
  Simkit.Engine.schedule_at fx.engine ~time:1_000.0 (fun () -> Nearby.Cluster.sync_round cluster);
  Simkit.Engine.run fx.engine ~until:1_500.0;
  let refreshes s = Simkit.Trace.counter (Nearby.Server.trace s) "report_refresh" in
  Alcotest.(check bool) "consistent after repair" true (Nearby.Cluster.consistent cluster);
  Alcotest.(check int) "two stragglers repaired" 2
    (Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_sync_restores");
  for i = 1 to 2 do
    let s = Nearby.Cluster.server_of cluster i in
    Alcotest.(check bool) (Printf.sprintf "replica %d keeps its server" i) true (s == servers.(i));
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "replica %d: held peer keeps its stamp" i)
      (Some 0.0)
      (Nearby.Server.registration_time s 1);
    Alcotest.(check (option (float 1e-9)))
      (Printf.sprintf "replica %d: repaired peer stamped at repair time" i)
      (Some 1_000.0)
      (Nearby.Server.registration_time s 2);
    Alcotest.(check int) (Printf.sprintf "replica %d: repair is not a refresh" i) 1 (refreshes s)
  done;
  Nearby.Cluster.check_invariants cluster

(* The property: replicas holding random registrations (shared, missing on
   either side, or the same id with a different path) converge in one
   round to the union, answer like a fresh single-node server fed that
   union, and are charged exactly the digest vector per divergent pair
   plus one Path_report per shipped entry. *)
let repair_fixture = lazy (fixture ~seed:30 ())
let repair_pool = 24

(* Per replica, per pool peer: [None] absent, [Some v] registered with
   path variant [v]. *)
let gen_replicas =
  QCheck.(
    list_of_size (Gen.int_range 2 3)
      (array_of_size (Gen.return repair_pool) (option ~ratio:0.7 (int_range 0 1))))

let prop_sync_round_repairs_to_union replicas =
  let fx = Lazy.force repair_fixture in
  let replicas = Array.of_list replicas in
  let n = Array.length replicas in
  let probe = make_server fx () in
  let leaves = fx.map.leaves in
  let variant peer v =
    let attach_router = leaves.(((2 * peer) + v) mod Array.length leaves) in
    (attach_router, Nearby.Server.measure probe ~attach_router)
  in
  let engine = Simkit.Engine.create () in
  let transport = Simkit.Transport.create engine fx.oracle in
  let metrics = Simkit.Metrics.create () in
  Simkit.Transport.set_wire_sinks ~metrics transport;
  let cluster =
    Nearby.Cluster.create ~detector_config ~transport ~client_router:fx.map.core.(0)
      ~make_server:(make_server fx)
      ~routers:(Array.sub fx.replica_routers 0 n)
      ()
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun peer choice ->
          Option.iter
            (fun v ->
              let attach_router, m = variant peer v in
              register_measurement (Nearby.Cluster.server_of cluster i) ~peer ~attach_router m)
            choice)
        row)
    replicas;
  (* The expected union: the source (most peers, ties to the lowest id)
     keeps its own entries; a peer it lacks comes from the first replica
     holding it. *)
  let count row = Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 row in
  let source = ref 0 in
  Array.iteri (fun i row -> if count row > count replicas.(!source) then source := i) replicas;
  let union =
    Array.init repair_pool (fun peer ->
        match replicas.(!source).(peer) with
        | Some v -> Some v
        | None ->
            Array.fold_left (fun acc row -> if acc = None then row.(peer) else acc) None replicas)
  in
  let report_bytes peer v =
    let path = Nearby.Server.measurement_path (snd (variant peer v)) in
    Nearby.Wire.byte_size (Nearby.Wire.Path_report { peer; path })
  in
  let expected_bytes = ref 0 in
  Array.iteri
    (fun peer u ->
      match (u, replicas.(!source).(peer)) with
      | Some v, None -> expected_bytes := !expected_bytes + report_bytes peer v
      | _ -> ())
    union;
  Array.iteri
    (fun i row ->
      if i <> !source && row <> union then begin
        expected_bytes := !expected_bytes + (Nearby.Server.digest_buckets * 8);
        Array.iteri
          (fun peer u ->
            match u with
            | Some v when row.(peer) <> u -> expected_bytes := !expected_bytes + report_bytes peer v
            | _ -> ())
          union
      end)
    replicas;
  Nearby.Cluster.sync_round cluster;
  let oracle = make_server fx () in
  Array.iteri
    (fun peer u ->
      Option.iter
        (fun v ->
          let attach_router, m = variant peer v in
          register_measurement oracle ~peer ~attach_router m)
        u)
    union;
  let union_ids = Nearby.Server.peer_ids oracle in
  let digest = Nearby.Server.digest oracle in
  let snapshot_bytes =
    Simkit.Metrics.series metrics
    |> List.fold_left
         (fun acc (name, labels, _) ->
           if name = "wire_bytes_total" && List.assoc_opt "kind" labels = Some "snapshot" then
             acc + Simkit.Metrics.counter metrics name ~labels
           else acc)
         0
  in
  Nearby.Cluster.check_invariants cluster;
  List.for_all
    (fun i ->
      let s = Nearby.Cluster.server_of cluster i in
      Int64.equal (Nearby.Server.digest s) digest
      && Nearby.Server.peer_ids s = union_ids
      && List.for_all
           (fun peer ->
             Nearby.Server.neighbors s ~peer ~k:5 = Nearby.Server.neighbors oracle ~peer ~k:5)
           union_ids)
    (List.init n Fun.id)
  && snapshot_bytes = !expected_bytes
  && Simkit.Trace.counter (Nearby.Cluster.trace cluster) "cluster_sync_bytes" = !expected_bytes

let test_sync_round_repairs_to_union =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
    (QCheck.Test.make ~name:"sync_round repairs random replicas to the union" ~count:60
       gen_replicas prop_sync_round_repairs_to_union)

let test_joins_under_loss_always_terminate () =
  (* The silent-stall regression (20% loss): every join must invoke exactly
     one of on_complete / on_failure — no hanging joins — and retries must
     carry the large majority through. *)
  let rng = Prelude.Prng.create 77 in
  let fx = fixture ~rng ~loss_prob:0.2 ~seed:26 () in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config ~rng:(Prelude.Prng.split rng) fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let peers = 30 in
  let replies, failed = run_joins fx protocol ~peers ~k:4 ~horizon:120_000.0 in
  let completed = Hashtbl.length replies in
  Alcotest.(check int) "every join terminated" peers (completed + failed);
  Alcotest.(check int) "rpc outcomes account for every join" peers
    (Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_ok"
    + Simkit.Trace.counter (Simkit.Rpc.trace rpc) "rpc_gave_up");
  Alcotest.(check bool)
    (Printf.sprintf "retries carry most joins through (%d/%d)" completed peers)
    true
    (completed >= peers * 8 / 10);
  Nearby.Cluster.check_invariants cluster

let test_single_cluster_guards () =
  let fx = fixture ~seed:27 () in
  let server = make_server fx () in
  let cluster = Nearby.Cluster.single ~router:fx.replica_routers.(0) server in
  Alcotest.(check int) "one replica" 1 (Nearby.Cluster.replica_count cluster);
  Alcotest.check_raises "no transport to target"
    (Invalid_argument "Cluster.target: single-server cluster has no transport") (fun () ->
      ignore (Nearby.Cluster.target cluster ~src:fx.map.core.(0) ~attempt:1));
  Alcotest.check_raises "no engine to sync on"
    (Invalid_argument "Cluster.start_sync: single-server cluster has no engine") (fun () ->
      Nearby.Cluster.start_sync cluster ~period_ms:100.0 ~until:1_000.0)

(* --- Batched join ------------------------------------------------------ *)

(* [join_many] semantics: every peer is registered before any query is
   answered, so the reference is a plain server with all peers joined
   first, then queried. *)
let batch_reference fx ~peers ~k =
  let reference = make_server fx () in
  for peer = 0 to peers - 1 do
    ignore
      (Nearby.Server.join reference ~peer
         ~attach_router:fx.map.leaves.(peer mod Array.length fx.map.leaves))
  done;
  List.init peers (fun peer -> Nearby.Server.neighbors reference ~peer ~k)

let batch_entries fx ~peers =
  Array.init peers (fun peer -> (peer, fx.map.leaves.(peer mod Array.length fx.map.leaves)))

let run_join_many fx protocol ~peers ~k ~horizon =
  let replies = Hashtbl.create peers in
  let failed = ref 0 in
  Nearby.Protocol.join_many protocol ~entries:(batch_entries fx ~peers) ~k
    ~on_complete:(fun peer _info reply -> Hashtbl.replace replies peer reply)
    ~on_failure:(fun () -> incr failed);
  Simkit.Engine.run fx.engine ~until:horizon;
  (replies, !failed)

let check_batch_replies ~expected replies =
  List.iteri
    (fun peer expect ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "peer %d batch reply" peer)
        expect (Hashtbl.find replies peer))
    expected

let test_join_many_direct_matches_bulk_server () =
  let fx = fixture ~replicas:1 ~seed:31 () in
  let peers = 12 and k = 4 in
  let expected = batch_reference fx ~peers ~k in
  let protocol =
    Nearby.Protocol.create ~engine:fx.engine ~server_router:fx.replica_routers.(0)
      (make_server fx ())
  in
  let replies, failed = run_join_many fx protocol ~peers ~k ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "all completed" peers (Hashtbl.length replies);
  check_batch_replies ~expected replies

let test_join_many_resilient_replicates_as_one_message () =
  let fx = fixture ~seed:32 () in
  let peers = 12 and k = 4 in
  let expected = batch_reference fx ~peers ~k in
  let cluster = make_cluster fx in
  let rpc = Simkit.Rpc.create ~config:rpc_config fx.transport in
  let protocol = Nearby.Protocol.create_resilient ~rpc cluster in
  let replies, failed = run_join_many fx protocol ~peers ~k ~horizon:60_000.0 in
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "all completed" peers (Hashtbl.length replies);
  check_batch_replies ~expected replies;
  (* The batching headline: ONE replication send per peer replica, not one
     per (entry, replica) — while the apply counter still accounts every
     entry on every replica. *)
  let c name = Simkit.Trace.counter (Nearby.Cluster.trace cluster) name in
  let others = Array.length fx.replica_routers - 1 in
  Alcotest.(check int) "register counter" peers (c "cluster_register");
  Alcotest.(check int) "one send per replica" others (c "cluster_replicate_send");
  Alcotest.(check int) "applies per entry" (peers * others) (c "cluster_replicate_apply");
  Alcotest.(check bool) "replicas consistent" true (Nearby.Cluster.consistent cluster);
  Nearby.Cluster.check_invariants cluster

let suite =
  ( "cluster",
    [
      Alcotest.test_case "direct path = plain server" `Quick test_direct_path_matches_plain_server;
      Alcotest.test_case "resilient 1-replica = direct" `Quick
        test_resilient_single_replica_loss_free_matches_direct;
      Alcotest.test_case "fan-out replicates to all" `Quick test_fan_out_replicates_to_all;
      Alcotest.test_case "crash primary fails over" `Quick test_crash_primary_fails_over;
      Alcotest.test_case "anti-entropy heals stale replica" `Quick
        test_anti_entropy_heals_stale_replica;
      Alcotest.test_case "consistent compares content" `Quick test_consistent_compares_content;
      Alcotest.test_case "repair in place keeps stamps" `Quick test_repair_in_place_keeps_stamps;
      test_sync_round_repairs_to_union;
      Alcotest.test_case "joins under 20% loss terminate" `Quick
        test_joins_under_loss_always_terminate;
      Alcotest.test_case "single-cluster guards" `Quick test_single_cluster_guards;
      Alcotest.test_case "join_many direct = bulk server" `Quick
        test_join_many_direct_matches_bulk_server;
      Alcotest.test_case "join_many replicates batch as one message" `Quick
        test_join_many_resilient_replicates_as_one_message;
    ] )
