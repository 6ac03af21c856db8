type size_flag = Routers | Peers | K
type size = { routers : int option; peers : int option; k : int option }

let no_size = { routers = None; peers = None; k = None }

type t = {
  name : string;
  title : string;
  size_flags : size_flag list;
  run : quick:bool -> seed:int option -> size -> unit;
}

let banner title = Printf.printf "\n================ %s ================\n%!" title

let ( |? ) o d = Option.value o ~default:d

(* [reseed] installs a [--seed]; [resize] applies the size overrides,
   which only the flags in [size_flags] can set. *)
let entry name title ?(size_flags = []) ?(resize = fun _ c -> c) ~reseed
    (quick_config, default_config) report =
  let run ~quick ~seed size =
    let config = if quick then quick_config else default_config in
    let config = match seed with Some s -> reseed config s | None -> config in
    report (resize size config)
  in
  { name; title; size_flags; run }

let sized = [ Routers; Peers; K ]

let all =
  [
    entry "fig2" "Reproduce the paper's measured figure: quality ratios vs population."
      ~size_flags:[ Routers; K ]
      ~reseed:(fun c s -> { c with Fig2.seeds = [ s ] })
      ~resize:(fun z (c : Fig2.config) ->
        { c with routers = z.routers |? c.routers; k = z.k |? c.k })
      Fig2.(quick_config, default_config)
      (fun c -> Fig2.print (Fig2.run c));
    entry "complexity" "Path-tree insert/query cost vs population (the O(log n)/O(1) claim)."
      ~reseed:(fun c s -> { c with Complexity.seed = s })
      Complexity.(quick_config, default_config)
      (fun c -> Complexity.print (Complexity.run c));
    entry "landmarks" "E1: sweep landmark count and placement policy." ~size_flags:sized
      ~reseed:(fun c s -> { c with Landmark_sweep.seeds = [ s ] })
      ~resize:(fun z (c : Landmark_sweep.config) ->
        { c with routers = z.routers |? c.routers; peers = z.peers |? c.peers; k = z.k |? c.k })
      Landmark_sweep.(quick_config, default_config)
      (fun c ->
        Landmark_sweep.print (Landmark_sweep.run c);
        print_newline ();
        Landmark_sweep.print_ablation (Landmark_sweep.run_round1_ablation c));
    entry "superpeers" "E2: super-peer delegation vs centralized server." ~size_flags:sized
      ~reseed:(fun c s -> { c with Super_peer_exp.seeds = [ s ] })
      ~resize:(fun z (c : Super_peer_exp.config) ->
        { c with routers = z.routers |? c.routers; peers = z.peers |? c.peers; k = z.k |? c.k })
      Super_peer_exp.(quick_config, default_config)
      (fun c -> Super_peer_exp.print (Super_peer_exp.run c));
    entry "churn" "E3: quality under churn, crashes and handover."
      ~reseed:(fun c s -> { c with Churn_exp.seed = s })
      Churn_exp.(quick_config, default_config)
      (fun c -> Churn_exp.print (Churn_exp.run c));
    entry "truncate" "E4: decreased traceroute - quality vs probe cost." ~size_flags:sized
      ~reseed:(fun c s -> { c with Truncate_exp.seeds = [ s ] })
      ~resize:(fun z (c : Truncate_exp.config) ->
        { c with routers = z.routers |? c.routers; peers = z.peers |? c.peers; k = z.k |? c.k })
      Truncate_exp.(quick_config, default_config)
      (fun c -> Truncate_exp.print (Truncate_exp.run c));
    entry "setup-delay" "E5: setup delay vs quality against Vivaldi and GNP."
      ~reseed:(fun c s -> { c with Setup_delay.seed = s })
      Setup_delay.(quick_config, default_config)
      (fun c -> Setup_delay.print (Setup_delay.run c));
    entry "metric" "Ablation: hop-count dtree vs latency-weighted dtree."
      ~reseed:(fun c s -> { c with Metric_ablation.seeds = [ s ] })
      Metric_ablation.(quick_config, default_config)
      (fun c -> Metric_ablation.print (Metric_ablation.run c));
    entry "streaming" "Mesh live streaming under different neighbor selectors." ~size_flags:sized
      ~reseed:(fun c s -> { c with Streaming_exp.seed = s })
      ~resize:(fun z (c : Streaming_exp.config) ->
        { c with routers = z.routers |? c.routers; peers = z.peers |? c.peers; k = z.k |? c.k })
      Streaming_exp.(quick_config, default_config)
      (fun c -> Streaming_exp.print (Streaming_exp.run c));
    entry "stretch" "Graph-oriented analysis of dtree vs true distance."
      ~reseed:(fun c s -> { c with Stretch_analysis.seed = s })
      Stretch_analysis.(quick_config, default_config)
      (fun c -> Stretch_analysis.print (Stretch_analysis.run c));
    entry "maintenance" "Neighbor-set decay under churn, frozen vs refreshed."
      ~reseed:(fun c s -> { c with Maintenance_exp.seed = s })
      Maintenance_exp.(quick_config, default_config)
      (fun c -> Maintenance_exp.print (Maintenance_exp.run c));
    entry "topologies" "Quality across map families (heavy tail vs homogeneous)."
      ~reseed:(fun c s -> { c with Topology_sensitivity.seeds = [ s ] })
      Topology_sensitivity.(quick_config, default_config)
      (fun c -> Topology_sensitivity.print (Topology_sensitivity.run c));
    entry "dht" "Decentralize the management server over a Chord DHT." ~size_flags:sized
      ~reseed:(fun c s -> { c with Dht_exp.seed = s })
      ~resize:(fun z (c : Dht_exp.config) ->
        { c with routers = z.routers |? c.routers; peers = z.peers |? c.peers; k = z.k |? c.k })
      Dht_exp.(quick_config, default_config)
      (fun c -> Dht_exp.print (Dht_exp.run c));
    entry "inflation" "Robustness to policy routing (path inflation)."
      ~reseed:(fun c s -> { c with Inflation_exp.seed = s })
      Inflation_exp.(quick_config, default_config)
      (fun c -> Inflation_exp.print (Inflation_exp.run c));
    entry "bulk" "Bulk file-swarm distribution under different selectors."
      ~reseed:(fun c s -> { c with Bulk_exp.seed = s })
      Bulk_exp.(quick_config, default_config)
      (fun c -> Bulk_exp.print (Bulk_exp.run c));
    entry "joining" "Newcomer time-to-playback mid-stream (the paper's thesis, end to end)."
      ~reseed:(fun c s -> { c with Joining_exp.seed = s })
      Joining_exp.(quick_config, default_config)
      (fun c -> Joining_exp.print (Joining_exp.run c));
  ]
