type tally = {
  mutable t_sent_bytes : int;
  mutable t_recv_bytes : int;
  mutable t_sent_msgs : int;
  mutable t_recv_msgs : int;
}

type talker = {
  node : Topology.Graph.node;
  sent_bytes : int;
  recv_bytes : int;
  sent_msgs : int;
  recv_msgs : int;
}

type wire_cells = { byte_count : int ref; msg_count : int ref }

type t = {
  engine : Engine.t;
  oracle : Traceroute.Route_oracle.t;
  latency : Topology.Latency.t option;
  rng : Prelude.Prng.t option;
  mutable loss_prob : float;
  mutable partition : (Topology.Graph.node, unit) Hashtbl.t option;
  mutable messages : int;
  mutable bytes : int;
  mutable link_bytes : int;
  mutable dropped_loss : int;
  mutable dropped_unreachable : int;
  mutable dropped_partition : int;
  mutable dropped_loss_bytes : int;
  mutable dropped_unreachable_bytes : int;
  mutable dropped_partition_bytes : int;
  mutable metrics : Metrics.t option;
  mutable timeseries : Timeseries.t option;
  talkers : (Topology.Graph.node, tally) Hashtbl.t;
  (* Series handles, resolved against the current sinks the first time a
     label set is written and dropped when a sink changes. *)
  delivered : (string, (string, wire_cells) Hashtbl.t) Hashtbl.t;  (* dir -> kind -> cells *)
  dropped : (string, wire_cells) Hashtbl.t;  (* reason -> cells *)
  kind_series : (string, Timeseries.series) Hashtbl.t;  (* kind -> "wire_bytes:<kind>" *)
}

let default_kind = "other"
let default_dir = "oneway"

let check_loss_prob ~who ~rng loss_prob =
  if loss_prob < 0.0 || loss_prob >= 1.0 then
    invalid_arg (who ^ ": loss_prob outside [0, 1)");
  if loss_prob > 0.0 && rng = None then invalid_arg (who ^ ": loss_prob needs ~rng")

let create ?latency ?rng ?(loss_prob = 0.0) ?metrics ?timeseries engine oracle =
  check_loss_prob ~who:"Transport.create" ~rng loss_prob;
  {
    engine;
    oracle;
    latency;
    rng;
    loss_prob;
    partition = None;
    messages = 0;
    bytes = 0;
    link_bytes = 0;
    dropped_loss = 0;
    dropped_unreachable = 0;
    dropped_partition = 0;
    dropped_loss_bytes = 0;
    dropped_unreachable_bytes = 0;
    dropped_partition_bytes = 0;
    metrics;
    timeseries;
    talkers = Hashtbl.create 64;
    delivered = Hashtbl.create 16;
    dropped = Hashtbl.create 4;
    kind_series = Hashtbl.create 16;
  }

let engine t = t.engine

let set_wire_sinks ?metrics ?timeseries t =
  if Option.is_some metrics then begin
    t.metrics <- metrics;
    Hashtbl.reset t.delivered;
    Hashtbl.reset t.dropped
  end;
  if Option.is_some timeseries then begin
    t.timeseries <- timeseries;
    Hashtbl.reset t.kind_series
  end

let set_loss_prob t loss_prob =
  check_loss_prob ~who:"Transport.set_loss_prob" ~rng:t.rng loss_prob;
  t.loss_prob <- loss_prob

let loss_prob t = t.loss_prob

let set_partition_nodes t nodes =
  let cut = Hashtbl.create (List.length nodes) in
  List.iter (fun node -> Hashtbl.replace cut node ()) nodes;
  t.partition <- Some cut

let clear_partition t = t.partition <- None

let partitioned t ~src ~dst =
  match t.partition with
  | None -> false
  | Some cut -> Hashtbl.mem cut src <> Hashtbl.mem cut dst

let one_way_delay t ~src ~dst =
  Traceroute.Probe.one_way_latency ?latency:t.latency t.oracle ~src ~dst

let jitter t delay =
  match t.rng with
  | None -> delay
  | Some rng -> delay *. (1.0 +. (0.05 *. (Prelude.Prng.unit_float rng -. 0.5) *. 2.0))

let lost t =
  t.loss_prob > 0.0
  && match t.rng with Some rng -> Prelude.Prng.unit_float rng < t.loss_prob | None -> false

let parts_total parts = List.fold_left (fun acc (_, b) -> acc + b) 0 parts

let tally_of t node =
  match Hashtbl.find t.talkers node with
  | tl -> tl
  | exception Not_found ->
      let tl = { t_sent_bytes = 0; t_recv_bytes = 0; t_sent_msgs = 0; t_recv_msgs = 0 } in
      Hashtbl.replace t.talkers node tl;
      tl

(* [resolve sink key] on a cache miss.  [resolve] is a top-level
   function, so a hit allocates no closure. *)
let memo table key resolve sink =
  match Hashtbl.find table key with
  | v -> v
  | exception Not_found ->
      let v = resolve sink key in
      Hashtbl.add table key v;
      v

(* The labeled (bytes, msgs) counter pair [<name>_bytes_total],
   [<name>_msgs_total], bumped once per message. *)
let wire_cells m name labels =
  let byte_count = Metrics.counter_ref m (name ^ "_bytes_total") ~labels in
  { byte_count; msg_count = Metrics.counter_ref m (name ^ "_msgs_total") ~labels }

(* Looked up per direction, then per kind, so a hit builds no key.  Not
   [memo]: resolving needs both [m] and [dir], and passing them as one sink
   would build a tuple or a closure on every hit. *)
let delivered_cells m ~dir by_kind kind =
  match Hashtbl.find by_kind kind with
  | c -> c
  | exception Not_found ->
      let c = wire_cells m "wire" [ ("kind", kind); ("dir", dir) ] in
      Hashtbl.add by_kind kind c;
      c

let kind_table () _dir = Hashtbl.create 8

let dropped_cells m reason = wire_cells m "wire_dropped" [ ("reason", reason) ]
let kind_series ts kind = Timeseries.series ts ("wire_bytes:" ^ kind)

let count c bytes =
  c.byte_count := !(c.byte_count) + bytes;
  incr c.msg_count

let rec count_delivered m ~dir by_kind = function
  | [] -> ()
  | (kind, bytes) :: parts ->
      count (delivered_cells m ~dir by_kind kind) bytes;
      count_delivered m ~dir by_kind parts

let account_drop t ~reason ~total =
  (match reason with
  | `Loss ->
      t.dropped_loss <- t.dropped_loss + 1;
      t.dropped_loss_bytes <- t.dropped_loss_bytes + total
  | `Unreachable ->
      t.dropped_unreachable <- t.dropped_unreachable + 1;
      t.dropped_unreachable_bytes <- t.dropped_unreachable_bytes + total
  | `Partition ->
      t.dropped_partition <- t.dropped_partition + 1;
      t.dropped_partition_bytes <- t.dropped_partition_bytes + total);
  match t.metrics with
  | None -> ()
  | Some m ->
      let reason =
        match reason with
        | `Loss -> "loss"
        | `Unreachable -> "unreachable"
        | `Partition -> "partition"
      in
      count (memo t.dropped reason dropped_cells m) total

(* One delivered message: whole-run counters, per-endpoint tallies, then the
   dimensional view — each [(kind, bytes)] part feeds its own labeled series,
   so one frame carrying a report and a query splits cleanly by kind while
   counting once in [messages_sent].  [hops] is the route's link count
   ([max_int] when unreachable). *)
let account_delivered t ~src ~dst ~hops ~dir ~parts ~total =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + total;
  if hops <> max_int then t.link_bytes <- t.link_bytes + (total * hops);
  let s = tally_of t src and d = tally_of t dst in
  s.t_sent_bytes <- s.t_sent_bytes + total;
  s.t_sent_msgs <- s.t_sent_msgs + 1;
  d.t_recv_bytes <- d.t_recv_bytes + total;
  d.t_recv_msgs <- d.t_recv_msgs + 1;
  (match t.metrics with
  | None -> ()
  | Some m -> count_delivered m ~dir (memo t.delivered dir kind_table ()) parts);
  match t.timeseries with
  | None -> ()
  | Some ts ->
      let now = Engine.now t.engine in
      Timeseries.observe ts "wire_bytes" ~now (float_of_int total);
      List.iter
        (fun (kind, bytes) ->
          Timeseries.observe_series ts (memo t.kind_series kind kind_series ts) ~now
            (float_of_int bytes))
        parts

(* [send_parts] once the route is walked: [hops] links ([max_int] when
   unreachable), [delay] its one-way latency. *)
let deliver t ~src ~dst ~hops ~delay ~dir ~parts ~total handler =
  if hops = max_int then account_drop t ~reason:`Unreachable ~total
  else if partitioned t ~src ~dst then account_drop t ~reason:`Partition ~total
  else if lost t then account_drop t ~reason:`Loss ~total
  else begin
    account_delivered t ~src ~dst ~hops ~dir ~parts ~total;
    Engine.schedule t.engine ~delay:(jitter t delay) handler
  end

(* One walk per message: without a latency table the hop count is the
   delay; with one, the walk also sums the link latencies in src -> dst
   order, as [route_latency] does. *)
let send_parts ?(dir = default_dir) t ~src ~dst ~parts handler =
  let total = parts_total parts in
  match t.latency with
  | None ->
      let hops = Traceroute.Route_oracle.route_length t.oracle ~src ~dst in
      deliver t ~src ~dst ~hops ~delay:(float_of_int hops) ~dir ~parts ~total handler
  | Some table ->
      let sum = ref 0.0 in
      let hops =
        Traceroute.Route_oracle.walk t.oracle ~src ~dst (fun u v ->
            sum := !sum +. Topology.Latency.get table u v)
      in
      deliver t ~src ~dst ~hops ~delay:!sum ~dir ~parts ~total handler

let send ?(kind = default_kind) ?dir t ~src ~dst ~size_bytes handler =
  send_parts ?dir t ~src ~dst ~parts:[ (kind, size_bytes) ] handler

let charge ?(kind = default_kind) ?(dir = default_dir) t ~src ~dst ~size_bytes =
  let hops = Traceroute.Route_oracle.route_length t.oracle ~src ~dst in
  account_delivered t ~src ~dst ~hops ~dir ~parts:[ (kind, size_bytes) ] ~total:size_bytes

(* Loss is drawn independently per leg: the request's Bernoulli draw happens
   at call time, the reply's at request-delivery time.  Either leg dying
   alone kills the RTT — the failure probability of an RPC under loss p is
   1 - (1-p)^2, not p. *)
let rpc ?kind t ~src ~dst ~request_bytes ~reply_bytes handler =
  send ?kind ~dir:"request" t ~src ~dst ~size_bytes:request_bytes (fun () ->
      send ?kind ~dir:"reply" t ~src:dst ~dst:src ~size_bytes:reply_bytes handler)

let messages_sent t = t.messages
let link_bytes t = t.link_bytes
let bytes_sent t = t.bytes
let dropped_loss t = t.dropped_loss
let dropped_unreachable t = t.dropped_unreachable
let dropped_partition t = t.dropped_partition
let messages_dropped t = t.dropped_loss + t.dropped_unreachable + t.dropped_partition
let dropped_loss_bytes t = t.dropped_loss_bytes
let dropped_unreachable_bytes t = t.dropped_unreachable_bytes
let dropped_partition_bytes t = t.dropped_partition_bytes

let bytes_dropped t =
  t.dropped_loss_bytes + t.dropped_unreachable_bytes + t.dropped_partition_bytes

let endpoint_count t = Hashtbl.length t.talkers

let top_talkers t ~k =
  if k < 0 then invalid_arg "Transport.top_talkers: negative k";
  let all =
    Hashtbl.fold
      (fun node tl acc ->
        {
          node;
          sent_bytes = tl.t_sent_bytes;
          recv_bytes = tl.t_recv_bytes;
          sent_msgs = tl.t_sent_msgs;
          recv_msgs = tl.t_recv_msgs;
        }
        :: acc)
      t.talkers []
  in
  let volume tk = tk.sent_bytes + tk.recv_bytes in
  let sorted =
    List.sort
      (fun a b ->
        match compare (volume b) (volume a) with 0 -> compare a.node b.node | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted

let stats t =
  [
    ("messages", t.messages);
    ("bytes", t.bytes);
    ("link_bytes", t.link_bytes);
    ("dropped_loss", t.dropped_loss);
    ("dropped_unreachable", t.dropped_unreachable);
    ("dropped_partition", t.dropped_partition);
    ("dropped_loss_bytes", t.dropped_loss_bytes);
    ("dropped_unreachable_bytes", t.dropped_unreachable_bytes);
    ("dropped_partition_bytes", t.dropped_partition_bytes);
  ]
