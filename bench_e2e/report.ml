(* Turning rounds into the benchmark's result line.

   End-to-end wall figures are medians over the untraced rounds of a run;
   the model figures are taken from the first round and must be identical
   in every round (they depend only on the seed).  Per-layer figures are
   medians over the traced rounds. *)

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("ns_per_op_growth", "ratio");
    ("alloc_words_per_op", "words");
    ("major_words_per_op", "words");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("completed_frac", "ratio");
    ("wire_bytes_per_op", "bytes");
    ("stretch_ratio", "ratio");
  ]

let per_layer =
  [
    ("engine.events_per_op", "count");
    ("engine.max_pending", "count");
    ("gc.major_collections", "count");
    ("admission.submit_ns_per_op", "ns");
    ("admission.shed_frac", "ratio");
    ("admission.wait_p99_ms", "ms");
    ("protocol.call_ns_per_op", "ns");
    ("protocol.probes_per_join", "count");
    ("rpc.call_ns_per_op", "ns");
    ("rpc.attempts_per_call", "ratio");
    ("rpc.gave_up", "count");
    ("transport.msgs_per_op", "count");
    ("transport.dropped_msgs", "count");
  ]
  @ List.map (fun k -> ("wire.bytes_per_op." ^ k, "bytes")) Workloads.wire_kinds
  @ [
      ("cluster.sync_ns_per_op", "ns");
      ("cluster.sync_self_ns_per_op", "ns");
      ("cluster.sync_words_per_op", "words");
      ("cluster.restores", "count");
      ("cluster.sync_skipped", "count");
      ("cluster.union_entries", "count");
      ("cluster.digest_check_ns", "ns");
      ("server.restore_ns_per_op", "ns");
      ("server.neighbors_ns_per_query", "ns");
      ("registry.insert_ns_per_op.join", "ns");
      ("registry.insert_ns_per_op.sync", "ns");
      ("registry.insert_calls", "count");
      ("registry.words_per_op", "words");
      ("registry.query_ns_per_op", "ns");
      ("registry.query_calls", "count");
      ("registry.approx_bytes_per_member", "bytes");
      ("untimed_ns_per_op", "ns");
      ("trace.wall_ns_per_op", "ns");
      ("trace.overhead_frac", "ratio");
    ]

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_of (rounds : Workloads.round list) field name =
  median (List.map (fun r -> List.assoc name (field r)) rounds)

(* Everything the seed alone fixes.  A round that disagrees with the first
   one is a defect (hidden state or a wall-clock dependence). *)
let fingerprint (r : Workloads.round) =
  r.model
  @ List.filter
      (fun (name, _) ->
        List.mem name [ "engine.events_per_op"; "rpc.attempts_per_call"; "cluster.restores" ])
      r.layers

let end_to_end_values ~(untraced : Workloads.round list) ~peak_heap_mb =
  let first = List.hd untraced in
  List.map
    (fun (name, unit) ->
      let value =
        match name with
        | "setup_s" -> median (List.map (fun (r : Workloads.round) -> r.setup_s) untraced)
        | "peak_heap_mb" -> peak_heap_mb
        | _ when List.mem_assoc name first.model -> List.assoc name first.model
        | _ -> median_of untraced (fun (r : Workloads.round) -> r.wall) name
      in
      (name, value, unit))
    end_to_end

let per_layer_values ~(untraced : Workloads.round list) ~(traced : Workloads.round list) =
  let ops_per_s rounds = median_of rounds (fun (r : Workloads.round) -> r.wall) "ops_per_s" in
  List.map
    (fun (name, unit) ->
      let value =
        if name = "trace.overhead_frac" then (ops_per_s untraced /. ops_per_s traced) -. 1.0
        else median_of traced (fun (r : Workloads.round) -> r.layers) name
      in
      (name, value, unit))
    per_layer

let json_number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed values =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric values))

(* Where the last traced round's wall time went: every span kind's total
   and self time per op, and the share of the timed phase the outermost
   spans and the untimed rest cover. *)
let print_breakdown oc (r : Workloads.round) =
  let t = Tracer.summarise () in
  let c = float_of_int (max 1 r.completed) in
  let wall = List.assoc "trace.wall_ns_per_op" r.layers in
  Printf.fprintf oc "%-24s %8s %14s %14s\n" "span" "count" "total ns/op" "self ns/op";
  Array.iter
    (fun kind ->
      let i = Tracer.kind_index kind in
      if t.count.(i) > 0 then
        Printf.fprintf oc "%-24s %8d %14.0f %14.0f\n" (Tracer.kind_name kind) t.count.(i)
          (float_of_int t.total_ns.(i) /. c)
          (float_of_int t.self_ns.(i) /. c))
    Tracer.kinds;
  let untimed = List.assoc "untimed_ns_per_op" r.layers in
  Printf.fprintf oc "outermost spans %.1f%% + untimed %.1f%% of %.0f ns/op\n%!"
    (100.0 *. (wall -. untimed) /. wall)
    (100.0 *. untimed /. wall)
    wall
