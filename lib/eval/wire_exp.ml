(* The bytes-on-wire experiment: how much traffic the protocol actually
   moves, broken down by message kind, and what replication and batching
   do to it.

   Two phases over the same workload (same seed, same router map, same
   peer arrival order):

   - singleton: every peer joins through its own resilient RPC, with a
     loss burst over part of the arrival window so the retry, dropped and
     anti-entropy snapshot byte buckets are all nonzero in one run;
   - batched: the same peers join through [Protocol.join_many] in chunks,
     lossless, isolating what [Wire.Path_report_batch] saves on client
     upload bytes.

   Everything is read back from the transport's labeled wire accounting
   ([wire_bytes_total{kind,dir}] etc.), and the run re-checks the two
   conservation invariants the accounting promises: per-kind bytes sum to
   [Transport.bytes_sent], per-reason dropped bytes sum to
   [Transport.bytes_dropped].  Deterministic in the seed. *)

type config = {
  routers : int;
  peers : int;
  landmark_count : int;
  k : int;
  replicas : int;
  batch : int;
  loss : float;
  arrival_window_ms : float;
  sync_period_ms : float;
  rpc : Simkit.Rpc.config;
  seed : int;
}

let default_config =
  {
    routers = 2000;
    peers = 10_000;
    landmark_count = 8;
    k = 5;
    replicas = 3;
    batch = 256;
    loss = 0.3;
    arrival_window_ms = 20_000.0;
    sync_period_ms = 2_000.0;
    rpc = Simkit.Rpc.default_config;
    seed = 1;
  }

let quick_config =
  { default_config with routers = 800; peers = 1_500; arrival_window_ms = 8_000.0 }

type kind_row = { kind : string; bytes : int; msgs : int }

type result = {
  joins : int;
  completed : int;
  failed : int;
  completion_rate : float;
  bytes_sent : int;
  bytes_dropped : int;
  messages : int;
  bytes_per_join : float;
  bytes_per_query : float;
  replication_amplification : float;
  snapshot_bytes : int;
  retry_bytes : int;
  fd_probe_bytes : int;
  dropped_loss_bytes : int;
  dropped_unreachable_bytes : int;
  dropped_partition_bytes : int;
  kinds : kind_row list;
  top_talkers : Simkit.Transport.talker list;
  singleton_report_bytes : int;
  batch_joins : int;
  batch_completed : int;
  batch_report_bytes : int;
  batch_saving_ratio : float;
  batch_bytes_per_join : float;
  accounted : bool;
}

(* --- Reading the labeled registry back ---------------------------------- *)

let label labels key = match List.assoc_opt key labels with Some v -> v | None -> ""

let sum_counters metrics name ~where =
  List.fold_left
    (fun acc (n, labels, _) ->
      if n = name && where labels then acc + Simkit.Metrics.counter metrics name ~labels
      else acc)
    0
    (Simkit.Metrics.series metrics)

let kind_bytes metrics kind =
  sum_counters metrics "wire_bytes_total" ~where:(fun l -> label l "kind" = kind)

let dir_bytes metrics dirs =
  sum_counters metrics "wire_bytes_total" ~where:(fun l -> List.mem (label l "dir") dirs)

(* Per-kind (bytes, msgs) summed over directions, largest first. *)
let kind_rows metrics =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (n, labels, _) ->
      if n = "wire_bytes_total" then begin
        let kind = label labels "kind" in
        let bytes = Simkit.Metrics.counter metrics "wire_bytes_total" ~labels in
        let msgs = Simkit.Metrics.counter metrics "wire_msgs_total" ~labels in
        let b0, m0 = Option.value (Hashtbl.find_opt tbl kind) ~default:(0, 0) in
        Hashtbl.replace tbl kind (b0 + bytes, m0 + msgs)
      end)
    (Simkit.Metrics.series metrics);
  Hashtbl.fold (fun kind (bytes, msgs) acc -> { kind; bytes; msgs } :: acc) tbl []
  |> List.sort (fun a b -> compare (b.bytes, a.kind) (a.bytes, b.kind))

(* The conservation invariants: every delivered byte carries exactly one
   kind label, every dropped byte exactly one reason label. *)
let reconciled metrics transport =
  sum_counters metrics "wire_bytes_total" ~where:(fun _ -> true)
  = Simkit.Transport.bytes_sent transport
  && sum_counters metrics "wire_dropped_bytes_total" ~where:(fun _ -> true)
     = Simkit.Transport.bytes_dropped transport

(* --- One phase ---------------------------------------------------------- *)

type phase = {
  p_completed : int;
  p_failed : int;
  p_metrics : Simkit.Metrics.t;
  p_transport : Simkit.Transport.t;
  p_cluster : Nearby.Cluster.t;
}

let worst_rpc_ms (c : Simkit.Rpc.config) =
  let backoffs = ref 0.0 in
  for a = 1 to c.max_attempts - 1 do
    backoffs :=
      !backoffs
      +. (c.backoff_base_ms *. (c.backoff_multiplier ** float_of_int (a - 1)) *. (1.0 +. c.jitter_frac))
  done;
  (float_of_int c.max_attempts *. c.timeout_ms) +. !backoffs

let run_phase (config : config) ~batched =
  let w =
    Workload.build ~routers:config.routers ~landmark_count:config.landmark_count
      ~peers:config.peers ~seed:config.seed ()
  in
  let engine = Simkit.Engine.create () in
  let metrics = Simkit.Metrics.create () in
  let transport =
    Simkit.Transport.create ~rng:(Prelude.Prng.split w.rng) ~metrics engine w.ctx.oracle
  in
  let replica_routers =
    Nearby.Landmark.place (Workload.graph w) Medium_degree ~count:config.replicas
      ~rng:(Prelude.Prng.split w.rng)
  in
  let client_router = w.map.core.(0) in
  let cluster =
    Nearby.Cluster.create ~metrics ~transport ~client_router
      ~make_server:(fun () ->
        Nearby.Server.create ?latency:w.ctx.latency w.ctx.oracle ~landmarks:w.landmarks)
      ~restore_server:(fun data ->
        Nearby.Server.restore ?latency:w.ctx.latency w.ctx.oracle data)
      ~routers:replica_routers ()
  in
  let rpc = Simkit.Rpc.create ~config:config.rpc ~rng:(Prelude.Prng.split w.rng) transport in
  let protocol = Nearby.Protocol.create_resilient ?latency:w.ctx.latency ~rpc cluster in
  (* Loss burst in the singleton phase only: lost fan-outs and replies
     force retries and anti-entropy snapshot repair, so the retry,
     dropped and snapshot buckets are all exercised by one scenario.  The
     batched phase stays lossless — it isolates the batching saving. *)
  if (not batched) && config.loss > 0.0 then begin
    let aw = config.arrival_window_ms in
    Simkit.Engine.schedule_at engine ~time:(0.25 *. aw) (fun () ->
        Simkit.Transport.set_loss_prob transport config.loss);
    Simkit.Engine.schedule_at engine ~time:(0.6 *. aw) (fun () ->
        Simkit.Transport.set_loss_prob transport 0.0)
  end;
  let horizon =
    config.arrival_window_ms +. worst_rpc_ms config.rpc +. (3.0 *. config.sync_period_ms)
    +. 1_000.0
  in
  Nearby.Cluster.start_sync cluster ~period_ms:config.sync_period_ms ~until:horizon;
  let completed = ref 0 and failed = ref 0 in
  if batched then begin
    let chunk = max 1 config.batch in
    let n_chunks = (config.peers + chunk - 1) / chunk in
    let spacing = config.arrival_window_ms /. float_of_int (max 1 n_chunks) in
    let rec schedule_chunks at i =
      if i < config.peers then begin
        let len = min chunk (config.peers - i) in
        let entries = Array.init len (fun j -> (i + j, w.peer_routers.(i + j))) in
        Simkit.Engine.schedule_at engine ~time:at (fun () ->
            Nearby.Protocol.join_many protocol ~entries ~k:config.k
              ~on_complete:(fun _peer _info _reply -> incr completed)
              ~on_failure:(fun () -> failed := !failed + len));
        schedule_chunks (at +. spacing) (i + len)
      end
    in
    schedule_chunks 0.0 0
  end
  else
    for peer = 0 to config.peers - 1 do
      let at = Prelude.Prng.float w.rng config.arrival_window_ms in
      Simkit.Engine.schedule_at engine ~time:at (fun () ->
          Nearby.Protocol.join protocol ~peer ~attach_router:w.peer_routers.(peer)
            ~k:config.k
            ~on_complete:(fun _info _reply -> incr completed)
            ~on_failure:(fun () -> incr failed))
    done;
  Simkit.Engine.run engine ~until:horizon;
  Nearby.Cluster.sync_round cluster;
  Nearby.Cluster.check_invariants cluster;
  {
    p_completed = !completed;
    p_failed = !failed;
    p_metrics = metrics;
    p_transport = transport;
    p_cluster = cluster;
  }

let run (config : config) =
  if config.replicas < 1 then invalid_arg "Wire_exp: replicas must be >= 1";
  if config.loss < 0.0 || config.loss >= 1.0 then invalid_arg "Wire_exp: loss outside [0, 1)";
  if config.batch < 1 then invalid_arg "Wire_exp: batch must be >= 1";
  let s = run_phase config ~batched:false in
  let b = run_phase config ~batched:true in
  let m = s.p_metrics and tr = s.p_transport in
  let per v n = if n = 0 then Float.nan else float_of_int v /. float_of_int n in
  let singleton_report_bytes =
    Simkit.Trace.counter (Nearby.Cluster.trace s.p_cluster) "cluster_client_report_bytes"
  in
  let batch_report_bytes =
    Simkit.Trace.counter (Nearby.Cluster.trace b.p_cluster) "cluster_client_report_bytes"
  in
  {
    joins = config.peers;
    completed = s.p_completed;
    failed = s.p_failed;
    completion_rate = per s.p_completed config.peers;
    bytes_sent = Simkit.Transport.bytes_sent tr;
    bytes_dropped = Simkit.Transport.bytes_dropped tr;
    messages = Simkit.Transport.messages_sent tr;
    (* Client-facing wire cost of a join: the request and reply legs —
       reports, queries, replies and every retried attempt — divided by
       the joins that completed.  Replica fan-out is the amplification
       number, not the per-join client cost. *)
    bytes_per_join = per (dir_bytes m [ "request"; "reply" ]) s.p_completed;
    bytes_per_query = per (kind_bytes m "query" + kind_bytes m "reply") s.p_completed;
    replication_amplification = Nearby.Cluster.replication_amplification s.p_cluster;
    snapshot_bytes = kind_bytes m "snapshot";
    retry_bytes = kind_bytes m "retry";
    fd_probe_bytes = kind_bytes m "fd_probe";
    dropped_loss_bytes = Simkit.Transport.dropped_loss_bytes tr;
    dropped_unreachable_bytes = Simkit.Transport.dropped_unreachable_bytes tr;
    dropped_partition_bytes = Simkit.Transport.dropped_partition_bytes tr;
    kinds = kind_rows m;
    top_talkers = Simkit.Transport.top_talkers tr ~k:5;
    singleton_report_bytes;
    batch_joins = config.peers;
    batch_completed = b.p_completed;
    batch_report_bytes;
    batch_saving_ratio = float_of_int singleton_report_bytes /. float_of_int (max 1 batch_report_bytes);
    batch_bytes_per_join =
      per (dir_bytes b.p_metrics [ "request"; "reply" ]) b.p_completed;
    accounted = reconciled m tr && reconciled b.p_metrics b.p_transport;
  }

(* --- Rendering ---------------------------------------------------------- *)

let result_json (r : result) : Simkit.Json.t =
  let open Simkit.Json in
  let kind_json (k : kind_row) =
    Obj [ ("kind", String k.kind); ("bytes", Int k.bytes); ("msgs", Int k.msgs) ]
  in
  let talker_json (t : Simkit.Transport.talker) =
    Obj
      [
        ("node", Int t.node);
        ("sent_bytes", Int t.sent_bytes);
        ("recv_bytes", Int t.recv_bytes);
        ("sent_msgs", Int t.sent_msgs);
        ("recv_msgs", Int t.recv_msgs);
      ]
  in
  Obj
    [
      ("joins", Int r.joins);
      ("completed", Int r.completed);
      ("failed", Int r.failed);
      ("completion_rate", Number r.completion_rate);
      ("bytes_sent", Int r.bytes_sent);
      ("bytes_dropped", Int r.bytes_dropped);
      ("messages", Int r.messages);
      ("bytes_per_join", Number r.bytes_per_join);
      ("bytes_per_query", Number r.bytes_per_query);
      ("replication_amplification", Number r.replication_amplification);
      ("snapshot_bytes", Int r.snapshot_bytes);
      ("retry_bytes", Int r.retry_bytes);
      ("fd_probe_bytes", Int r.fd_probe_bytes);
      ("dropped_loss_bytes", Int r.dropped_loss_bytes);
      ("dropped_unreachable_bytes", Int r.dropped_unreachable_bytes);
      ("dropped_partition_bytes", Int r.dropped_partition_bytes);
      ("kinds", List (List.map kind_json r.kinds));
      ("top_talkers", List (List.map talker_json r.top_talkers));
      ("singleton_report_bytes", Int r.singleton_report_bytes);
      ("batch_joins", Int r.batch_joins);
      ("batch_completed", Int r.batch_completed);
      ("batch_report_bytes", Int r.batch_report_bytes);
      ("batch_saving_ratio", Number r.batch_saving_ratio);
      ("batch_bytes_per_join", Number r.batch_bytes_per_join);
      ("accounted", Bool r.accounted);
    ]

(* BENCH_wire.json: byte counts on the simulated wire are pure functions
   of the seed — no wall clock anywhere — so everything gates tightly.
   The structural bits (accounting reconciles, amplification equals the
   replica count, batching actually saves upload bytes) are exact.  The
   invariants are the run's own consistency checks, judged on the
   current document alone. *)
let gate : Regression.table =
  let open Regression in
  let w field doc = num [ "wire"; field ] doc in
  let kinds = elements [ "wire"; "kinds" ] in
  let kind = element [ "wire"; "kinds" ] ~key:(fields [ "kind" ]) in
  let invariant name holds = row Invariant ("wire/invariant/" ^ name) (fun doc -> bit (holds doc)) in
  rows
    ([
       row Higher_better ~tolerance:0.02 "wire/completion_rate" (w "completion_rate");
       row Lower_better ~tolerance:0.1 "wire/bytes_per_join" (w "bytes_per_join");
       row Lower_better ~tolerance:0.1 "wire/bytes_per_query" (w "bytes_per_query");
       row Exact "wire/replication_amplification" (w "replication_amplification");
       row Lower_better ~tolerance:0.5 "wire/snapshot_bytes_per_join" (fun doc ->
           w "snapshot_bytes" doc /. Float.max 1.0 (w "joins" doc));
       row Higher_better ~tolerance:0.05 "wire/batch_saving_ratio" (w "batch_saving_ratio");
       row Exact "wire/batch_saves_bytes" (fun doc -> bit (w "batch_saving_ratio" doc > 1.0));
       row Exact "wire/accounted" (flag [ "wire"; "accounted" ]);
     ]
    (* Every kind the protocol speaks moved real bytes in one run: reports
       and queries from the joins, replies back, retries and anti-entropy
       snapshots from the loss burst, fd probes from the heartbeats. *)
    @ List.map
        (fun k -> invariant (k ^ "_bytes") (fun doc -> num [ "bytes" ] (kind k doc) > 0.0))
        [ "path_report"; "query"; "reply"; "retry"; "snapshot"; "fd_probe" ]
    @ [
        (* Conservation: per-kind delivered bytes sum to the transport's
           aggregate, per-reason dropped bytes to the dropped aggregate. *)
        invariant "kind_bytes_sum_to_sent" (fun doc ->
            List.fold_left (fun acc k -> acc +. num [ "bytes" ] k) 0.0 (kinds doc)
            = w "bytes_sent" doc);
        invariant "dropped_bytes_reconcile" (fun doc ->
            w "dropped_loss_bytes" doc +. w "dropped_unreachable_bytes" doc
            +. w "dropped_partition_bytes" doc
            = w "bytes_dropped" doc);
        invariant "accounted" (fun doc -> flag [ "wire"; "accounted" ] doc = 1.0);
        invariant "loss_burst_dropped" (fun doc -> w "dropped_loss_bytes" doc > 0.0);
        (* 3 replicas, every report fanned out verbatim to the other two. *)
        invariant "amplification_is_3" (fun doc ->
            Float.abs (w "replication_amplification" doc -. 3.0) < 1e-9);
        (* The same peer set uploaded in Path_report_batch frames costs
           fewer client bytes than one frame per report. *)
        invariant "batch_beats_singleton" (fun doc ->
            w "batch_report_bytes" doc < w "singleton_report_bytes" doc);
        invariant "batch_saving_above_1" (fun doc -> w "batch_saving_ratio" doc > 1.0);
        invariant "talkers_tallied" (fun doc -> elements [ "wire"; "top_talkers" ] doc <> []);
      ])

let print (r : result) =
  Printf.printf "Wire: joins=%d completed=%d accounted=%b\n" r.joins r.completed r.accounted;
  Prelude.Table.print
    ~header:[ "metric"; "value" ]
    [
      [ "bytes sent"; string_of_int r.bytes_sent ];
      [ "bytes dropped"; string_of_int r.bytes_dropped ];
      [ "messages"; string_of_int r.messages ];
      [ "bytes/join"; Prelude.Table.float_cell ~decimals:1 r.bytes_per_join ];
      [ "bytes/query"; Prelude.Table.float_cell ~decimals:1 r.bytes_per_query ];
      [
        "replication amplification";
        Prelude.Table.float_cell ~decimals:2 r.replication_amplification;
      ];
      [ "snapshot bytes"; string_of_int r.snapshot_bytes ];
      [ "retry bytes"; string_of_int r.retry_bytes ];
      [ "fd probe bytes"; string_of_int r.fd_probe_bytes ];
      [ "dropped (loss) bytes"; string_of_int r.dropped_loss_bytes ];
      [ "dropped (unreachable) bytes"; string_of_int r.dropped_unreachable_bytes ];
      [ "dropped (partition) bytes"; string_of_int r.dropped_partition_bytes ];
      [ "singleton report bytes"; string_of_int r.singleton_report_bytes ];
      [ "batch report bytes"; string_of_int r.batch_report_bytes ];
      [ "batch saving"; Prelude.Table.float_cell ~decimals:2 r.batch_saving_ratio ];
      [ "batch bytes/join"; Prelude.Table.float_cell ~decimals:1 r.batch_bytes_per_join ];
    ];
  Printf.printf "per-kind bytes (both directions):\n";
  Prelude.Table.print
    ~header:[ "kind"; "bytes"; "msgs" ]
    (List.map
       (fun (k : kind_row) -> [ k.kind; string_of_int k.bytes; string_of_int k.msgs ])
       r.kinds);
  Printf.printf "top talkers:\n";
  Prelude.Table.print
    ~header:[ "node"; "sent"; "recv" ]
    (List.map
       (fun (t : Simkit.Transport.talker) ->
         [ string_of_int t.node; string_of_int t.sent_bytes; string_of_int t.recv_bytes ])
       r.top_talkers)
