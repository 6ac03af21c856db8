(* Benchmark harness.

   Two layers:
   - Bechamel micro-benchmarks of the paper's complexity-critical operations
     (path-tree insertion and query at growing populations - the O(log n) /
     O(1) claim - plus substrate hot paths);
   - regeneration of every evaluation artifact in DESIGN.md's experiment
     index (fig2 and the E1..E5 tables), printed as the rows the paper
     reports.

   `dune exec bench/main.exe` runs everything in quick mode;
   `dune exec bench/main.exe -- <experiment> [--full]` runs one experiment,
   optionally at the paper-scale configuration. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks *)

type tree_fixture = {
  tree : Nearby.Path_tree.t;
  routes : int array array;  (* leaf index -> route to the landmark *)
  population : int;
  mutable next_peer : int;
}

let make_fixture ~routers ~population ~seed =
  let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params routers) ~seed in
  let rng = Prelude.Prng.create seed in
  let landmark =
    (Nearby.Landmark.place map.graph Nearby.Landmark.Medium_degree ~count:1 ~rng).(0)
  in
  let oracle = Traceroute.Route_oracle.create map.graph in
  let routes =
    Array.map
      (fun leaf -> Array.of_list (Traceroute.Route_oracle.route oracle ~src:leaf ~dst:landmark))
      map.leaves
  in
  let tree = Nearby.Path_tree.create ~landmark in
  for peer = 0 to population - 1 do
    Nearby.Path_tree.insert tree ~peer ~routers:routes.(peer mod Array.length routes)
  done;
  { tree; routes; population; next_peer = population }

let micro_tests () =
  let sizes = [ 1_000; 4_000; 16_000; 64_000 ] in
  let fixtures = List.map (fun n -> (n, make_fixture ~routers:2000 ~population:n ~seed:7)) sizes in
  let insert_tests =
    let make (n, fx) =
      Test.make ~name:(Printf.sprintf "path_tree/insert/n=%d" n)
        (Staged.stage (fun () ->
             (* Insert a fresh peer then remove it, so the population stays
                at n across runs. *)
             let peer = fx.next_peer in
             fx.next_peer <- fx.next_peer + 1;
             Nearby.Path_tree.insert fx.tree ~peer
               ~routers:fx.routes.(peer mod Array.length fx.routes);
             Nearby.Path_tree.remove fx.tree peer))
    in
    List.map make fixtures
  in
  let query_tests =
    let make (n, fx) =
      let counter = ref 0 in
      Test.make ~name:(Printf.sprintf "path_tree/query/n=%d" n)
        (Staged.stage (fun () ->
             let peer = !counter mod fx.population in
             incr counter;
             ignore (Nearby.Path_tree.query_member fx.tree ~peer ~k:5)))
    in
    List.map make fixtures
  in
  let substrate =
    let map = Topology.Gen_magoni.generate (Topology.Gen_magoni.default_params 2000) ~seed:11 in
    let oracle = Traceroute.Route_oracle.create map.graph in
    let leaf_count = Array.length map.leaves in
    let counter = ref 0 in
    [
      Test.make ~name:"topology/bfs/2000-routers"
        (Staged.stage (fun () ->
             let src = map.leaves.(!counter mod leaf_count) in
             incr counter;
             ignore (Topology.Bfs.distances map.graph src)));
      Test.make ~name:"traceroute/probe/cached-tree"
        (Staged.stage (fun () ->
             let src = map.leaves.(!counter mod leaf_count) in
             incr counter;
             ignore (Traceroute.Probe.run oracle ~src ~dst:map.core.(0))));
      (let rng = Prelude.Prng.create 3 in
       Test.make ~name:"prelude/prng/int"
         (Staged.stage (fun () -> ignore (Prelude.Prng.int rng 1_000_000))));
    ]
  in
  Test.make_grouped ~name:"micro" (insert_tests @ query_tests @ substrate)

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (ns/op, OLS on monotonic clock) ==";
  let tests = micro_tests () in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with Some [ e ] -> e | _ -> nan
        in
        let r2 = match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort compare
  in
  Prelude.Table.print
    ~header:[ "benchmark"; "ns/op"; "r^2" ]
    (List.map
       (fun (name, est, r2) ->
         [ name; Prelude.Table.float_cell ~decimals:1 est; Prelude.Table.float_cell ~decimals:4 r2 ])
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment regeneration *)

let banner title = Printf.printf "\n================ %s ================\n%!" title

let run_fig2 ~full =
  banner "fig2 (the paper's measured figure)";
  let config = if full then Eval.Fig2.default_config else Eval.Fig2.quick_config in
  Eval.Fig2.print (Eval.Fig2.run config)

let run_complexity ~full =
  banner "complexity table (O(log n) insert / O(1) query)";
  let config = if full then Eval.Complexity.default_config else Eval.Complexity.quick_config in
  Eval.Complexity.print (Eval.Complexity.run config)

let run_landmarks ~full =
  banner "E1 landmark count x placement";
  let config =
    if full then Eval.Landmark_sweep.default_config else Eval.Landmark_sweep.quick_config
  in
  Eval.Landmark_sweep.print (Eval.Landmark_sweep.run config);
  print_newline ();
  Eval.Landmark_sweep.print_ablation (Eval.Landmark_sweep.run_round1_ablation config)

let run_superpeers ~full =
  banner "E2 super-peers";
  let config =
    if full then Eval.Super_peer_exp.default_config else Eval.Super_peer_exp.quick_config
  in
  Eval.Super_peer_exp.print (Eval.Super_peer_exp.run config)

let run_churn ~full =
  banner "E3 churn / failures / handover";
  let config = if full then Eval.Churn_exp.default_config else Eval.Churn_exp.quick_config in
  Eval.Churn_exp.print (Eval.Churn_exp.run config)

let run_truncate ~full =
  banner "E4 decreased traceroute";
  let config = if full then Eval.Truncate_exp.default_config else Eval.Truncate_exp.quick_config in
  Eval.Truncate_exp.print (Eval.Truncate_exp.run config)

let run_setup_delay ~full =
  banner "E5 setup delay vs quality";
  let config = if full then Eval.Setup_delay.default_config else Eval.Setup_delay.quick_config in
  Eval.Setup_delay.print (Eval.Setup_delay.run config)

let run_metric ~full =
  banner "ablation: hop vs latency dtree";
  let config =
    if full then Eval.Metric_ablation.default_config else Eval.Metric_ablation.quick_config
  in
  Eval.Metric_ablation.print (Eval.Metric_ablation.run config)

let run_streaming ~full =
  banner "application: mesh live streaming";
  let config =
    if full then Eval.Streaming_exp.default_config else Eval.Streaming_exp.quick_config
  in
  Eval.Streaming_exp.print (Eval.Streaming_exp.run config)

let run_stretch ~full =
  banner "stretch analysis (graph-oriented dtree vs d)";
  let config =
    if full then Eval.Stretch_analysis.default_config else Eval.Stretch_analysis.quick_config
  in
  Eval.Stretch_analysis.print (Eval.Stretch_analysis.run config)

let run_maintenance ~full =
  banner "maintenance: frozen vs refreshed neighbor sets under churn";
  let config =
    if full then Eval.Maintenance_exp.default_config else Eval.Maintenance_exp.quick_config
  in
  Eval.Maintenance_exp.print (Eval.Maintenance_exp.run config)

let run_topology_sensitivity ~full =
  banner "topology sensitivity (heavy tail vs homogeneous maps)";
  let config =
    if full then Eval.Topology_sensitivity.default_config else Eval.Topology_sensitivity.quick_config
  in
  Eval.Topology_sensitivity.print (Eval.Topology_sensitivity.run config)

let run_dht ~full =
  banner "dht: decentralized directory (Chord)";
  let config = if full then Eval.Dht_exp.default_config else Eval.Dht_exp.quick_config in
  Eval.Dht_exp.print (Eval.Dht_exp.run config)

let run_inflation ~full =
  banner "inflation: robustness to policy routing";
  let config = if full then Eval.Inflation_exp.default_config else Eval.Inflation_exp.quick_config in
  Eval.Inflation_exp.print (Eval.Inflation_exp.run config)

let run_bulk ~full =
  banner "application: bulk file swarm";
  let config = if full then Eval.Bulk_exp.default_config else Eval.Bulk_exp.quick_config in
  Eval.Bulk_exp.print (Eval.Bulk_exp.run config)

let run_joining ~full =
  banner "joining: newcomer time-to-playback mid-stream";
  let config = if full then Eval.Joining_exp.default_config else Eval.Joining_exp.quick_config in
  Eval.Joining_exp.print (Eval.Joining_exp.run config)

(* ------------------------------------------------------------------ *)
(* Registry backend throughput *)

let time_ops f =
  let t0 = Sys.time () in
  let ops = f () in
  let dt = Sys.time () -. t0 in
  float_of_int ops /. Float.max dt 1e-9

(* Wall-clock throughput for the scaling sweep: [Sys.time] counts process
   CPU seconds, which over-charges anything that fans work out to Domain
   workers, so the sweep times on the wall instead. *)
let wall_ops f =
  let t0 = Unix.gettimeofday () in
  let ops = f () in
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int ops /. Float.max dt 1e-9

type sweep_row = {
  sw_n : int;
  sw_backend : string;
  sw_insert_ops : float;
  sw_query_ops : float;
  sw_members : int;
  sw_bytes : int;
  sw_identical : bool;
}

(* The million-member scaling sweep: tree vs sharded:4 at growing
   populations, built with the batch interface ([insert_many] in 8192-entry
   chunks) and queried with [query_member_many], cross-checking answer
   equivalence at every point.  One build per (n, backend) — a 1M build is
   seconds long, repetition buys nothing — while the query batch repeats
   until the clock has something to measure. *)
let run_sweep ~sweep_max =
  banner "registry scaling sweep (batch insert/query, tree vs sharded)";
  let sizes = List.filter (fun n -> n <= sweep_max) [ 10_000; 100_000; 1_000_000 ] in
  if sizes = [] then invalid_arg "bench registry: --sweep-max below the smallest sweep point";
  let k = 5 in
  let chunk = 8192 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed:7 in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let specs = [ Eval.Backends.Tree; Eval.Backends.Sharded { shards = 4 } ] in
  let rows =
    List.concat_map
      (fun n ->
        let query_count = min n 2_000 in
        let stride = n / query_count in
        let queries = Array.init query_count (fun i -> i * stride) in
        let reference = ref None in
        List.map
          (fun spec ->
            let reg = Nearby.Registry_intf.create (Eval.Backends.backend spec) ~landmark in
            let insert_ops =
              wall_ops (fun () ->
                  let peer = ref 0 in
                  while !peer < n do
                    let m = min chunk (n - !peer) in
                    let base = !peer in
                    Nearby.Registry_intf.insert_many reg
                      (Array.init m (fun i -> (base + i, route_of (base + i))));
                    peer := base + m
                  done;
                  n)
            in
            let answers = Nearby.Registry_intf.query_member_many reg ~peers:queries ~k in
            let reps = ref 1 in
            let t0 = Unix.gettimeofday () in
            let elapsed () = Unix.gettimeofday () -. t0 in
            while !reps < 50 && (!reps < 3 || elapsed () < 0.5) do
              ignore (Nearby.Registry_intf.query_member_many reg ~peers:queries ~k);
              incr reps
            done;
            (* The first batch ran outside the window; count only the timed
               reps.  [reps] includes it, so subtract one. *)
            let query_ops =
              float_of_int ((!reps - 1) * query_count) /. Float.max (elapsed ()) 1e-9
            in
            let identical =
              match !reference with
              | None ->
                  reference := Some answers;
                  true
              | Some r -> answers = r
            in
            let intro = Nearby.Registry_intf.introspect reg in
            {
              sw_n = n;
              sw_backend = Eval.Backends.to_string spec;
              sw_insert_ops = insert_ops;
              sw_query_ops = query_ops;
              sw_members = intro.Nearby.Registry_intf.members;
              sw_bytes = intro.Nearby.Registry_intf.approx_bytes;
              sw_identical = identical;
            })
          specs)
      sizes
  in
  Prelude.Table.print
    ~header:
      [ "n"; "backend"; "insert ops/s"; "query ops/s"; "members"; "~MiB"; "B/member";
        "answers = tree" ]
    (List.map
       (fun r ->
         [
           string_of_int r.sw_n;
           r.sw_backend;
           Prelude.Table.float_cell ~decimals:0 r.sw_insert_ops;
           Prelude.Table.float_cell ~decimals:0 r.sw_query_ops;
           string_of_int r.sw_members;
           Prelude.Table.float_cell ~decimals:1 (float_of_int r.sw_bytes /. 1048576.0);
           string_of_int (r.sw_bytes / Int.max 1 r.sw_members);
           string_of_bool r.sw_identical;
         ])
       rows);
  rows

let sweep_row_json r =
  Simkit.Json.(
    Obj
      [
        ("n", Int r.sw_n);
        ("backend", String r.sw_backend);
        ("insert_ops_per_s", Number r.sw_insert_ops);
        ("query_ops_per_s", Number r.sw_query_ops);
        ("members", Int r.sw_members);
        ("approx_bytes", Int r.sw_bytes);
        ("answers_identical", Bool r.sw_identical);
      ])

let run_registry ~full ~sweep_max =
  banner "registry backends: insert/query throughput (unified interface)";
  let population = if full then 20_000 else 10_000 in
  let query_count = if full then 2_000 else 1_000 in
  let k = 5 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed:7 in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let repeats = 3 in
  let run_backend spec =
    let backend = Eval.Backends.backend spec in
    (* Best of [repeats] fresh builds: population-scale inserts are long
       enough to time with Sys.time, the max squeezes out scheduler noise. *)
    let reg = ref (Nearby.Registry_intf.create backend ~landmark) in
    let insert_ops = ref 0.0 in
    for _ = 1 to repeats do
      let fresh = Nearby.Registry_intf.create backend ~landmark in
      let ops =
        time_ops (fun () ->
            for peer = 0 to population - 1 do
              Nearby.Registry_intf.insert fresh ~peer ~routers:(route_of peer)
            done;
            population)
      in
      insert_ops := Float.max !insert_ops ops;
      reg := fresh
    done;
    let reg = !reg in
    let answers = Array.make query_count [] in
    let query_ops =
      time_ops (fun () ->
          for peer = 0 to query_count - 1 do
            answers.(peer) <- Nearby.Registry_intf.query_member reg ~peer ~k
          done;
          query_count)
    in
    (Eval.Backends.to_string spec, !insert_ops, query_ops, answers)
  in
  let results = List.map run_backend Eval.Backends.all in
  let reference =
    match results with
    | ("tree", _, _, answers) :: _ -> answers
    | _ -> failwith "registry bench: tree backend must run first"
  in
  let rows =
    List.map
      (fun (name, insert_ops, query_ops, answers) ->
        (name, insert_ops, query_ops, answers = reference))
      results
  in
  Prelude.Table.print
    ~header:[ "backend"; "insert ops/s"; "query ops/s"; "answers = tree" ]
    (List.map
       (fun (name, insert_ops, query_ops, identical) ->
         [
           name;
           Prelude.Table.float_cell ~decimals:0 insert_ops;
           Prelude.Table.float_cell ~decimals:0 query_ops;
           string_of_bool identical;
         ])
       rows);
  let sweep_rows = run_sweep ~sweep_max in
  let row_json (name, insert_ops, query_ops, identical) =
    Simkit.Json.(
      Obj
        [
          ("backend", String name);
          ("insert_ops_per_s", Number insert_ops);
          ("query_ops_per_s", Number query_ops);
          ("answers_identical", Bool identical);
        ])
  in
  Simkit.Export.write_bench ~path:"BENCH_registry.json" ~seed:7
    ~backends:(List.map Eval.Backends.to_string Eval.Backends.all)
    Simkit.Json.
      [
        ("population", Int population);
        ("queries", Int query_count);
        ("k", Int k);
        ("backends", List (List.map row_json rows));
        ("sweep", List (List.map sweep_row_json sweep_rows));
      ];
  Printf.printf "wrote BENCH_registry.json (%d-peer workload, sweep to %d)\n%!" population
    (List.fold_left (fun acc r -> Int.max acc r.sw_n) 0 sweep_rows)

(* ------------------------------------------------------------------ *)
(* Observability: per-backend latency quantiles through the instrumented
   registry — the same wrapper the sim's --metrics-out path uses, so the
   BENCH_obs.json trajectory and the sim's snapshots are comparable. *)

let run_obs ~full =
  banner "observability: per-backend insert/query latency quantiles";
  let population = if full then 20_000 else 10_000 in
  let query_count = if full then 2_000 else 1_000 in
  let k = 5 in
  let seed = 7 in
  let fx = make_fixture ~routers:2000 ~population:0 ~seed in
  let landmark = Nearby.Path_tree.landmark fx.tree in
  let route_of peer = fx.routes.(peer mod Array.length fx.routes) in
  let run_backend spec =
    let metrics = Simkit.Trace.create () in
    (* A live sink so every op is one root trace: the middleware tags each
       latency sample with its trace id, which is what populates the tail
       exemplars this bench gates on.  The span machinery sits outside the
       timed window, so the ns quantiles are unaffected. *)
    let spans = Simkit.Span.buffer () in
    let backend =
      Nearby.Instrumented_registry.wrap ~metrics ~spans (Eval.Backends.backend spec)
    in
    let reg = Nearby.Registry_intf.create backend ~landmark in
    for peer = 0 to population - 1 do
      Nearby.Registry_intf.insert reg ~peer ~routers:(route_of peer)
    done;
    for peer = 0 to query_count - 1 do
      ignore (Nearby.Registry_intf.query_member reg ~peer ~k)
    done;
    let summary name =
      match Simkit.Trace.summary metrics name with
      | Some s -> s
      | None -> failwith ("bench obs: missing stream " ^ name)
    in
    let exemplar_count name = List.length (Simkit.Trace.exemplars metrics name) in
    ( Eval.Backends.to_string spec,
      summary Nearby.Instrumented_registry.insert_ns,
      summary Nearby.Instrumented_registry.query_ns,
      exemplar_count Nearby.Instrumented_registry.insert_ns,
      exemplar_count Nearby.Instrumented_registry.query_ns,
      Nearby.Registry_intf.introspect reg )
  in
  let results = List.map run_backend Eval.Backends.all in
  let cell = Prelude.Table.float_cell ~decimals:0 in
  Prelude.Table.print
    ~header:
      [ "backend"; "insert p50 ns"; "insert p99 ns"; "query p50 ns"; "query p99 ns";
        "exemplars"; "members"; "routers"; "~KiB" ]
    (List.map
       (fun (name, (ins : Simkit.Trace.summary), (q : Simkit.Trace.summary), ins_ex, q_ex,
             (intro : Nearby.Registry_intf.introspection)) ->
         [ name; cell ins.p50; cell ins.p99; cell q.p50; cell q.p99;
           string_of_int (ins_ex + q_ex); string_of_int intro.members;
           string_of_int intro.routers; string_of_int (intro.approx_bytes / 1024) ])
       results);
  (* Sketch fidelity: the merged fleet quantiles below are only as good as
     the sketch, so gate its relative error against exact order statistics
     on a deterministic heavy-tailed sample set. *)
  let sketch_err =
    let n = 5_000 in
    let rng = Prelude.Prng.create (seed * 7919) in
    let samples =
      Array.init n (fun _ ->
          let u = Prelude.Prng.unit_float rng in
          0.5 +. (1_000.0 *. u *. u *. u))
    in
    let sk = Prelude.Sketch.create () in
    Array.iter (fun v -> Prelude.Sketch.add sk v) samples;
    List.map
      (fun q ->
        let exact = Prelude.Stats.percentile samples (100.0 *. q) in
        let est = Prelude.Sketch.quantile sk q in
        (q, Float.abs (est -. exact) /. exact))
      [ 0.5; 0.9; 0.99 ]
  in
  let sketch_max_err = List.fold_left (fun m (_, e) -> Float.max m e) 0.0 sketch_err in
  let sketch_within = sketch_max_err <= 2.0 *. Prelude.Sketch.default_alpha in
  (* Fleet-wide merged view: a replicated cluster over sharded registries,
     scraped per replica and folded into one trace.  Simulated clock, so
     every number is deterministic in the seed. *)
  let fleet_result, fleet =
    Eval.Fleet_obs.run
      { Eval.Fleet_obs.quick_config with seed; slos = Eval.Fleet_obs.default_slos }
  in
  let alpha = Prelude.Sketch.default_alpha in
  let cluster = Eval.Fleet_obs.cluster fleet in
  let fleet_within =
    (* Each replica-labeled p99 must match that replica's own sketch (a
       single-source merge copies the buckets), and the merged p99 must
       land inside the per-replica envelope, both within the documented
       relative-error bound. *)
    let per_replica_ok = ref true in
    let p99s =
      Array.to_list
        (Array.mapi
           (fun i labeled ->
             (match
                Simkit.Trace.sketch_quantile
                  (Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
                  "join_ms" 0.99
              with
             | Some source when Float.abs (labeled -. source) > 2.0 *. alpha *. source ->
                 per_replica_ok := false
             | Some _ -> ()
             | None -> per_replica_ok := false);
             labeled)
           fleet_result.Eval.Fleet_obs.replica_join_p99_ms)
    in
    let lo = List.fold_left Float.min infinity p99s in
    let hi = List.fold_left Float.max neg_infinity p99s in
    !per_replica_ok
    && fleet_result.Eval.Fleet_obs.fleet_join_p99_ms >= lo *. (1.0 -. (2.0 *. alpha))
    && fleet_result.Eval.Fleet_obs.fleet_join_p99_ms <= hi *. (1.0 +. (2.0 *. alpha))
  in
  Printf.printf
    "fleet: %d/%d joins, merged p99 %.1f ms (replicas %s), shard skew %.2f, sketch max rel \
     err %.5f\n%!"
    fleet_result.Eval.Fleet_obs.completed fleet_result.Eval.Fleet_obs.joins
    fleet_result.Eval.Fleet_obs.fleet_join_p99_ms
    (String.concat " "
       (List.map (Printf.sprintf "%.1f")
          (Array.to_list fleet_result.Eval.Fleet_obs.replica_join_p99_ms)))
    fleet_result.Eval.Fleet_obs.shard_skew sketch_max_err;
  let open Simkit.Json in
  let quantiles_json (s : Simkit.Trace.summary) =
    Obj
      [
        ("count", Int s.count);
        ("mean", Number s.mean);
        ("p50", Number s.p50);
        ("p90", Number s.p90);
        ("p99", Number s.p99);
        ("max", option (fun v -> Number v) s.max);
      ]
  in
  let row_json (name, ins, q, ins_ex, q_ex, intro) =
    Obj
      [
        ("backend", String name);
        ("insert_ns", quantiles_json ins);
        ("query_ns", quantiles_json q);
        ("insert_exemplars", Int ins_ex);
        ("query_exemplars", Int q_ex);
        ("introspect", Nearby.Registry_intf.introspection_json intro);
      ]
  in
  let sketch_json =
    Obj
      ([ ("alpha", Number Prelude.Sketch.default_alpha); ("samples", Int 5000) ]
      @ List.map
          (fun (q, e) -> (Printf.sprintf "rel_err_p%d" (int_of_float (q *. 100.0)), Number e))
          sketch_err
      @ [ ("max_rel_err", Number sketch_max_err); ("within_bound", Bool sketch_within) ])
  in
  let fleet_json =
    let r = fleet_result in
    Obj
      [
        ("replicas", Int (Nearby.Cluster.replica_count cluster));
        ("shards", Int Eval.Fleet_obs.quick_config.Eval.Fleet_obs.shards);
        ("joins", Int r.Eval.Fleet_obs.joins);
        ("completed", Int r.Eval.Fleet_obs.completed);
        ( "completion_rate",
          Number (float_of_int r.Eval.Fleet_obs.completed /. float_of_int r.Eval.Fleet_obs.joins) );
        ("merged_p50_ms", Number r.Eval.Fleet_obs.fleet_join_p50_ms);
        ("merged_p99_ms", Number r.Eval.Fleet_obs.fleet_join_p99_ms);
        ( "replica_p99_ms",
          List (List.map (fun v -> Number v) (Array.to_list r.Eval.Fleet_obs.replica_join_p99_ms)) );
        ("within_bound", Bool fleet_within);
        ("shard_skew", Number r.Eval.Fleet_obs.shard_skew);
        ("rpc_ok", Int r.Eval.Fleet_obs.rpc_ok);
      ]
  in
  Simkit.Export.write_bench ~path:"BENCH_obs.json" ~seed
    ~backends:(List.map Eval.Backends.to_string Eval.Backends.all)
    ~params:
      [
        ("population", string_of_int population);
        ("queries", string_of_int query_count);
        ("k", string_of_int k);
      ]
    [ ("backends", List (List.map row_json results)); ("sketch", sketch_json); ("fleet", fleet_json) ];
  Printf.printf "wrote BENCH_obs.json (%d-peer workload, %d queries)\n%!" population query_count

(* ------------------------------------------------------------------ *)
(* Resilience: join completion, latency tail and recovery time as the
   replica count and fault scenario vary — the cluster's headline
   guarantees, written to BENCH_resilience.json for the CI smoke gate. *)

let run_resilience ~full =
  banner "resilience: completion / p99 join latency / recovery vs replicas";
  let base =
    if full then Eval.Resilience_exp.default_config else Eval.Resilience_exp.quick_config
  in
  let replica_counts = [ 1; 3; 5 ] in
  let scenarios = [ "none"; "crash-primary"; "loss-burst" ] in
  let results =
    List.concat_map
      (fun scenario ->
        List.filter_map
          (fun replicas ->
            (* A 1-replica cluster cannot survive its own crash; skip the
               combination rather than report a vacuous 0% completion. *)
            if scenario = "crash-primary" && replicas = 1 then None
            else
              Some
                (Eval.Resilience_exp.run { base with Eval.Resilience_exp.scenario; replicas }))
          replica_counts)
      scenarios
  in
  let cell = Prelude.Table.float_cell in
  Prelude.Table.print
    ~header:
      [ "scenario"; "replicas"; "completion"; "p99 join ms"; "recovery ms"; "consistent" ]
    (List.map
       (fun (r : Eval.Resilience_exp.result) ->
         [
           r.scenario;
           string_of_int r.replicas;
           cell ~decimals:4 r.completion_rate;
           cell ~decimals:1 r.join_p99_ms;
           (match r.recovery_ms with Some v -> cell ~decimals:1 v | None -> "-");
           string_of_bool r.consistent;
         ])
       results);
  Simkit.Export.write_bench ~path:"BENCH_resilience.json" ~seed:base.seed
    ~params:
      [
        ("peers", string_of_int base.peers);
        ("routers", string_of_int base.routers);
        ("scenarios", String.concat " " scenarios);
      ]
    [ ("runs", Simkit.Json.List (List.map Eval.Resilience_exp.result_json results)) ];
  Printf.printf "wrote BENCH_resilience.json (%d runs)\n%!" (List.length results)

(* ------------------------------------------------------------------ *)
(* Load: open-loop arrivals vs admission control.  The flash crowd at 2x
   the service rate under each shedding policy — the headline is that the
   SLO-driven shedder keeps the admitted-join p99 inside the budget while
   drop-tail serves every admitted request seconds late — plus a healthy
   under-saturation row, written to BENCH_load.json for the CI gate. *)

let run_load ~full =
  banner "load: flash crowd x shedding policy (admission control)";
  let base = if full then Eval.Load_exp.default_config else Eval.Load_exp.quick_config in
  let configs =
    List.map (fun policy -> { base with Eval.Load_exp.policy }) Eval.Load_exp.policies
    @ [
        (* Healthy control: 0.8x saturation through the same queue sheds
           nothing regardless of policy. *)
        {
          base with
          Eval.Load_exp.arrival =
            Simkit.Workload.Poisson { rate_per_s = 0.8 *. base.Eval.Load_exp.service_rate_per_s };
          policy = "slo";
        };
      ]
    @
    if full then
      [
        (* Scale: >100k open-loop arrivals through the batch paths. *)
        {
          base with
          Eval.Load_exp.arrival = Simkit.Workload.Poisson { rate_per_s = 4_000.0 };
          duration_ms = 30_000.0;
          service_rate_per_s = 5_000.0;
          batch = 128;
          queue_cap = 8_000;
          policy = "slo";
        };
      ]
    else []
  in
  let results =
    List.map
      (fun config ->
        let r = Eval.Load_exp.run config in
        Eval.Load_exp.print r;
        print_newline ();
        r)
      configs
  in
  Simkit.Export.write_bench ~path:"BENCH_load.json" ~seed:base.Eval.Load_exp.seed
    ~params:
      [
        ("routers", string_of_int base.Eval.Load_exp.routers);
        ("service_rate_per_s", string_of_float base.Eval.Load_exp.service_rate_per_s);
        ("queue_cap", string_of_int base.Eval.Load_exp.queue_cap);
        ("slo_budget_ms", string_of_float base.Eval.Load_exp.slo_budget_ms);
      ]
    [ ("runs", Simkit.Json.List (List.map Eval.Load_exp.result_json results)) ];
  Printf.printf "wrote BENCH_load.json (%d runs)\n%!" (List.length results)

(* ------------------------------------------------------------------ *)
(* Wire: bytes on the wire by message kind — bytes/join, bytes/query,
   replication amplification, anti-entropy snapshot cost and the batching
   saving, written to BENCH_wire.json for the CI gate. *)

let run_wire ~full =
  banner "wire: bytes per join / per query, amplification, batching saving";
  let config = if full then Eval.Wire_exp.default_config else Eval.Wire_exp.quick_config in
  let r = Eval.Wire_exp.run config in
  Eval.Wire_exp.print r;
  Simkit.Export.write_bench ~path:"BENCH_wire.json" ~seed:config.Eval.Wire_exp.seed
    ~params:
      [
        ("peers", string_of_int config.Eval.Wire_exp.peers);
        ("routers", string_of_int config.Eval.Wire_exp.routers);
        ("replicas", string_of_int config.Eval.Wire_exp.replicas);
        ("batch", string_of_int config.Eval.Wire_exp.batch);
        ("loss", string_of_float config.Eval.Wire_exp.loss);
      ]
    [ ("wire", Eval.Wire_exp.result_json r) ];
  Printf.printf "wrote BENCH_wire.json (%d joins x %d replicas)\n%!" config.Eval.Wire_exp.peers
    config.Eval.Wire_exp.replicas

(* ------------------------------------------------------------------ *)
(* Health: state-health observability — a loss burst forces replica
   divergence; measure detection latency, anti-entropy reconvergence lag,
   digest-gated transfer savings and report staleness, written to
   BENCH_health.json for the CI gate. *)

let run_health ~full =
  banner "health: divergence detection, reconvergence lag, report staleness";
  let config = if full then Eval.Health_exp.default_config else Eval.Health_exp.quick_config in
  let r = Eval.Health_exp.run config in
  Eval.Health_exp.print r;
  Simkit.Export.write_bench ~path:"BENCH_health.json" ~seed:config.Eval.Health_exp.seed
    ~params:
      [
        ("peers", string_of_int config.Eval.Health_exp.peers);
        ("routers", string_of_int config.Eval.Health_exp.routers);
        ("replicas", string_of_int config.Eval.Health_exp.replicas);
        ("loss", string_of_float config.Eval.Health_exp.loss);
        ("sync_period_ms", string_of_float config.Eval.Health_exp.sync_period_ms);
        ("check_period_ms", string_of_float config.Eval.Health_exp.check_period_ms);
      ]
    [ ("health", Eval.Health_exp.result_json r) ];
  Printf.printf "wrote BENCH_health.json (%d joins x %d replicas)\n%!"
    config.Eval.Health_exp.peers config.Eval.Health_exp.replicas

(* ------------------------------------------------------------------ *)
(* Regression gate: BENCH_*.json (current working tree) vs the committed
   baselines under bench/baselines/, judged by the gate tables of
   Eval.Bench_gates.all; `--update` refreshes the baselines instead of
   judging. *)

let run_regress ~baseline_dir ~update ~pairs =
  banner "bench regression gate";
  if update then begin
    (if not (Sys.file_exists baseline_dir) then Sys.mkdir baseline_dir 0o755);
    List.iter
      (fun (file, _) ->
        if not (Sys.file_exists file) then begin
          Printf.eprintf "regress --update: %s not found; generate it first\n" file;
          exit 1
        end;
        Simkit.Export.write_file
          (Filename.concat baseline_dir file)
          (In_channel.with_open_bin file In_channel.input_all);
        Printf.printf "baseline updated: %s\n" (Filename.concat baseline_dir file))
      pairs
  end
  else begin
    let failed = ref 0 in
    List.iter
      (fun (file, table) ->
        let baseline_path = Filename.concat baseline_dir file in
        let load path =
          match Simkit.Json.of_file path with
          | Ok doc -> doc
          | Error e ->
              Printf.eprintf "regress: cannot read %s: %s\n" path e;
              exit 1
        in
        if not (Sys.file_exists baseline_path) then begin
          Printf.eprintf "regress: no baseline %s (run with --update to create)\n" baseline_path;
          exit 1
        end;
        if not (Sys.file_exists file) then begin
          Printf.eprintf "regress: %s not found; generate it first\n" file;
          exit 1
        end;
        let comparisons =
          Eval.Regression.compare_docs table ~baseline:(load baseline_path) ~current:(load file)
        in
        Printf.printf "\n-- %s --\n" file;
        Eval.Regression.print comparisons;
        failed := !failed + List.length (Eval.Regression.failures comparisons))
      pairs;
    if !failed > 0 then begin
      Printf.eprintf "\nregress: %d metric(s) beyond tolerance\n" !failed;
      exit 1
    end
    else Printf.printf "\nregress: all metrics within tolerance\n"
  end

let run_all ~full ~sweep_max =
  run_micro ();
  run_fig2 ~full;
  run_complexity ~full;
  run_landmarks ~full;
  run_superpeers ~full;
  run_churn ~full;
  run_truncate ~full;
  run_setup_delay ~full;
  run_metric ~full;
  run_streaming ~full;
  run_stretch ~full;
  run_maintenance ~full;
  run_topology_sensitivity ~full;
  run_registry ~full ~sweep_max;
  run_obs ~full;
  run_dht ~full;
  run_inflation ~full;
  run_bulk ~full;
  run_joining ~full;
  run_resilience ~full;
  run_load ~full;
  run_wire ~full;
  run_health ~full

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> a <> "--full") args in
  (* --csv DIR: also capture every printed table as a CSV file. *)
  let rec extract_csv acc = function
    | "--csv" :: dir :: rest ->
        Prelude.Table.set_csv_sink (Some dir);
        List.rev_append acc rest
    | x :: rest -> extract_csv (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_csv [] args in
  (* regress options: --baseline DIR (default bench/baselines), --update. *)
  let update = List.mem "--update" args in
  let args = List.filter (fun a -> a <> "--update") args in
  let rec extract_baseline acc dir = function
    | "--baseline" :: d :: rest -> extract_baseline acc d rest
    | x :: rest -> extract_baseline (x :: acc) dir rest
    | [] -> (List.rev acc, dir)
  in
  let args, baseline_dir = extract_baseline [] (Filename.concat "bench" "baselines") args in
  (* --sweep-max N caps the registry scaling sweep (default: the full
     million) — the CI scale job trims it to 100k. *)
  let rec extract_sweep_max acc cap = function
    | "--sweep-max" :: n :: rest -> (
        match int_of_string_opt n with
        | Some cap when cap > 0 -> extract_sweep_max acc cap rest
        | Some _ | None ->
            Printf.eprintf "bad --sweep-max %S (want a positive int)\n" n;
            exit 1)
    | x :: rest -> extract_sweep_max (x :: acc) cap rest
    | [] -> (List.rev acc, cap)
  in
  let args, sweep_max = extract_sweep_max [] 1_000_000 args in
  match args with
  | [] -> run_all ~full ~sweep_max
  | [ "micro" ] -> run_micro ()
  | [ "fig2" ] -> run_fig2 ~full
  | [ "complexity" ] -> run_complexity ~full
  | [ "landmarks" ] -> run_landmarks ~full
  | [ "superpeers" ] -> run_superpeers ~full
  | [ "churn" ] -> run_churn ~full
  | [ "truncate" ] -> run_truncate ~full
  | [ "setup-delay" ] -> run_setup_delay ~full
  | [ "metric" ] -> run_metric ~full
  | [ "streaming" ] -> run_streaming ~full
  | [ "stretch" ] -> run_stretch ~full
  | [ "maintenance" ] -> run_maintenance ~full
  | [ "topologies" ] -> run_topology_sensitivity ~full
  | [ "registry" ] -> run_registry ~full ~sweep_max
  | [ "obs" ] -> run_obs ~full
  | [ "dht" ] -> run_dht ~full
  | [ "inflation" ] -> run_inflation ~full
  | [ "bulk" ] -> run_bulk ~full
  | [ "joining" ] -> run_joining ~full
  | [ "resilience" ] -> run_resilience ~full
  | [ "load" ] -> run_load ~full
  | [ "wire" ] -> run_wire ~full
  | [ "health" ] -> run_health ~full
  (* `regress [FILE...]` gates only the named BENCH files (default: all) —
     the CI scale job regenerates and judges just BENCH_registry.json. *)
  | "regress" :: onlys ->
      let pairs =
        match onlys with
        | [] -> Eval.Bench_gates.all
        | _ ->
            List.iter
              (fun f ->
                if not (List.mem_assoc f Eval.Bench_gates.all) then begin
                  Printf.eprintf "regress: unknown bench file %S (known: %s)\n" f
                    (String.concat " " (List.map fst Eval.Bench_gates.all));
                  exit 1
                end)
              onlys;
            List.filter (fun (file, _) -> List.mem file onlys) Eval.Bench_gates.all
      in
      run_regress ~baseline_dir ~update ~pairs
  | other ->
      Printf.eprintf
        "unknown bench %S; available: micro fig2 complexity landmarks superpeers churn truncate \
         setup-delay metric streaming stretch maintenance topologies registry obs dht inflation \
         bulk joining resilience load wire health regress [--full]\n"
        (String.concat " " other);
      exit 1
