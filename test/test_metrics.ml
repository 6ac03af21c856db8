(* Labeled metrics: series identity, cardinality bound, merging, the
   labeled exporters, and the fleet-wide acceptance scenario. *)

open Simkit

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub haystack i m = needle || scan (i + 1)) in
  scan 0

let check_has label text sub =
  Alcotest.(check bool) (Printf.sprintf "%s: %s" label sub) true (contains text sub)

let test_canonical_key () =
  Alcotest.(check string) "bare name" "join_ms" (Metrics.canonical_key "join_ms" []);
  Alcotest.(check string) "labels sorted"
    "join_ms{replica=\"2\",zone=\"eu\"}"
    (Metrics.canonical_key "join_ms" [ ("zone", "eu"); ("replica", "2") ]);
  Alcotest.(check string) "values escaped"
    "m{k=\"a\\\"b\\\\c\"}"
    (Metrics.canonical_key "m" [ ("k", "a\"b\\c") ]);
  (match Metrics.canonical_key "m" [ ("k", "1"); ("k", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate label keys accepted")

let test_label_order_insensitive () =
  let m = Metrics.create () in
  Metrics.incr m "hits" ~labels:[ ("a", "1"); ("b", "2") ];
  Metrics.incr m "hits" ~labels:[ ("b", "2"); ("a", "1") ];
  Alcotest.(check int) "one series, two increments" 2
    (Metrics.counter m "hits" ~labels:[ ("a", "1"); ("b", "2") ]);
  Alcotest.(check int) "series count" 1 (Metrics.series_count m "hits")

let test_counter_stream_gauge_roundtrip () =
  let m = Metrics.create () in
  let l = [ ("outcome", "ok") ] in
  Metrics.add_count m "rpc_outcomes" ~labels:l 5;
  Metrics.incr m "rpc_outcomes" ~labels:l;
  Alcotest.(check int) "counter" 6 (Metrics.counter m "rpc_outcomes" ~labels:l);
  Alcotest.(check int) "unwritten counter" 0
    (Metrics.counter m "rpc_outcomes" ~labels:[ ("outcome", "timeout") ]);
  List.iter (fun v -> Metrics.observe m "join_ms" ~labels:l v) [ 10.0; 20.0; 30.0 ];
  (match Metrics.summary m "join_ms" ~labels:l with
  | None -> Alcotest.fail "stream summary missing"
  | Some s ->
      Alcotest.(check int) "stream count" 3 s.count;
      Alcotest.(check (float 1e-9)) "stream mean" 20.0 s.mean);
  (match Metrics.quantile m "join_ms" ~labels:l 0.5 with
  | None -> Alcotest.fail "stream quantile missing"
  | Some v ->
      Alcotest.(check bool) "median near 20" true
        (Float.abs (v -. 20.0) <= (Prelude.Sketch.default_alpha *. 20.0) +. 1e-9));
  Metrics.set m "members" ~labels:l 41.0;
  Metrics.set m "members" ~labels:l 42.0;
  Alcotest.(check (option (float 1e-9))) "gauge last-wins" (Some 42.0)
    (Metrics.gauge m "members" ~labels:l);
  Alcotest.(check (option (float 1e-9))) "unwritten gauge" None
    (Metrics.gauge m "members" ~labels:[ ("outcome", "timeout") ])

let test_cardinality_cap () =
  let m = Metrics.create ~max_series_per_name:4 () in
  for i = 1 to 10 do
    Metrics.incr m "per_peer" ~labels:[ ("peer", string_of_int i) ]
  done;
  (* The cap bounds the real series; the reserved overflow series rides on
     top, so storage stays at cap + 1 no matter how many label sets show
     up. *)
  Alcotest.(check int) "capped series count" 5 (Metrics.series_count m "per_peer");
  Alcotest.(check int) "overflow absorbed the rest" 6
    (Metrics.counter m "per_peer" ~labels:Metrics.overflow_labels);
  Alcotest.(check int) "rerouted writes counted" 6 (Metrics.overflow_routed m);
  (* A name that stays under the cap is unaffected. *)
  Metrics.incr m "small" ~labels:[ ("x", "1") ];
  Alcotest.(check int) "other name untouched" 1
    (Metrics.counter m "small" ~labels:[ ("x", "1") ])

let test_merge_trace_under_label () =
  let flat = Trace.create () in
  Trace.add_count flat "join" 3;
  List.iter (Trace.observe flat "join_ms") [ 5.0; 15.0 ];
  let m = Metrics.create () in
  Metrics.merge_into ~labels:[ ("replica", "2") ] ~into:m flat;
  Alcotest.(check int) "counter filed under label" 3
    (Metrics.counter m "join" ~labels:[ ("replica", "2") ]);
  (match Metrics.summary m "join_ms" ~labels:[ ("replica", "2") ] with
  | None -> Alcotest.fail "stream not filed"
  | Some s -> Alcotest.(check int) "samples carried" 2 s.count)

let test_merge_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "hits" ~labels:[ ("replica", "0") ];
  Metrics.add_count b "hits" ~labels:[ ("replica", "0") ] 2;
  Metrics.incr b "hits" ~labels:[ ("replica", "1") ];
  Metrics.set a "members" ~labels:[] 10.0;
  Metrics.set b "members" ~labels:[] 99.0;
  Metrics.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 3 (Metrics.counter a "hits" ~labels:[ ("replica", "0") ]);
  Alcotest.(check int) "new series appear" 1
    (Metrics.counter a "hits" ~labels:[ ("replica", "1") ]);
  Alcotest.(check (option (float 1e-9))) "gauge takes src value" (Some 99.0)
    (Metrics.gauge a "members" ~labels:[]);
  (* src unchanged *)
  Alcotest.(check int) "src untouched" 2 (Metrics.counter b "hits" ~labels:[ ("replica", "0") ])

let test_prometheus_labeled () =
  let m = Metrics.create () in
  Metrics.add_count m "rpc_outcomes" ~labels:[ ("outcome", "ok") ] 12;
  List.iter (fun v -> Metrics.observe m "join_ms" ~labels:[ ("replica", "0") ] v)
    [ 1.0; 2.0; 3.0 ];
  Metrics.set m "shard_members" ~labels:[ ("shard", "1") ] 7.0;
  let text = Export.prometheus [ ("fleet", m) ] in
  check_has "counter line" text "nearby_fleet_rpc_outcomes_total{outcome=\"ok\"} 12";
  check_has "stream count line" text "nearby_fleet_join_ms_count{replica=\"0\"} 3";
  check_has "quantile label appended" text "quantile=\"0.99\"";
  check_has "gauge line" text "nearby_fleet_shard_members{shard=\"1\"} 7";
  let json = Json.to_string (Export.labeled_json m) in
  check_has "json series array" json "\"series\"";
  check_has "json nested labels" json "\"labels\"";
  check_has "json overflow counter" json "\"overflow_routed\""

(* One stream has one answer: every reader of a series' quantiles — the
   summary, both quantile accessors, the JSON export and the Prometheus
   exposition — reports the same sketch read, on a live stream and after it
   absorbs a merge. *)
let test_one_answer_per_stream () =
  let labels = [ ("replica", "0") ] in
  let pareto seed n =
    let rng = Prelude.Prng.create seed in
    List.init n (fun _ -> 1.0 /. (1.0 -. Prelude.Prng.float rng 0.999))
  in
  let m = Metrics.create () in
  List.iter (Metrics.observe m "join_ms" ~labels) (pareto 7 2_000);
  let rendered v = Json.to_string (Json.Number v) in
  let check_agree stage =
    let s = Option.get (Metrics.summary m "join_ms" ~labels) in
    let json = Json.parse_exn (Json.to_string (Export.labeled_json m)) in
    let stats =
      match Json.member "series" json |> Option.map Json.as_list with
      | Some (Some series) ->
          List.find_map
            (fun e ->
              if Json.member "kind" e = Some (Json.String "stream") then
                Json.member "stats" e
              else None)
            series
          |> Option.get
      | _ -> Alcotest.fail "no series in labeled json"
    in
    let prom = Export.prometheus [ ("fleet", m) ] in
    List.iter
      (fun (q, label, field, from_summary) ->
        let what = Printf.sprintf "%s p%s" stage field in
        let expect = Option.get (Metrics.quantile m "join_ms" ~labels q) in
        Alcotest.(check (float 0.0)) (what ^ ": summary") expect from_summary;
        Alcotest.(check (float 0.0)) (what ^ ": Trace.quantile") expect
          (Option.get (Trace.quantile m "join_ms" ~labels q));
        Alcotest.(check (option (float 0.0))) (what ^ ": labeled json")
          (Some (float_of_string (rendered expect)))
          (Option.bind (Json.member ("p" ^ field) stats) Json.as_float);
        check_has (what ^ ": prometheus") prom
          (Printf.sprintf "nearby_fleet_join_ms{replica=\"0\",quantile=\"%s\"} %s\n" label
             (rendered expect)))
      [ (0.5, "0.5", "50", s.p50); (0.9, "0.9", "90", s.p90); (0.99, "0.99", "99", s.p99) ];
    (* Any q, not just the three exported ones. *)
    match Trace.quantile m "join_ms" ~labels 0.75 with
    | Some v when Float.is_finite v && v >= 1.0 -> ()
    | Some v -> Alcotest.failf "%s p75 = %g" stage v
    | None -> Alcotest.failf "%s: no p75" stage
  in
  check_agree "live";
  let other = Metrics.create () in
  List.iter (Metrics.observe other "join_ms" ~labels) (pareto 8 500);
  Metrics.merge_into ~into:m other;
  Alcotest.(check int) "merged count" 2_500
    (Option.get (Metrics.summary m "join_ms" ~labels)).count;
  check_agree "merged"

(* Label values straight from hostile input — quotes, backslashes,
   newlines — must round-trip through the exposition: one sample per
   line, escapes per the exposition grammar, and a parse of the emitted
   line recovers the original values byte for byte. *)
let parse_prom_sample line =
  let brace = String.index line '{' in
  let name = String.sub line 0 brace in
  let rec labels acc j =
    let eq = String.index_from line j '=' in
    let key = String.sub line j (eq - j) in
    if line.[eq + 1] <> '"' then Alcotest.failf "no opening quote in %S" line;
    let buf = Buffer.create 16 in
    let rec value k =
      match line.[k] with
      | '\\' ->
          (match line.[k + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | c -> Buffer.add_char buf c);
          value (k + 2)
      | '"' -> k + 1
      | c ->
          Buffer.add_char buf c;
          value (k + 1)
    in
    let after = value (eq + 2) in
    let acc = (key, Buffer.contents buf) :: acc in
    match line.[after] with
    | ',' -> labels acc (after + 1)
    | '}' -> List.rev acc
    | c -> Alcotest.failf "bad separator %C in %S" c line
  in
  (name, labels [] (brace + 1))

let test_prometheus_labeled_escaping () =
  let m = Metrics.create () in
  let path = "C:\\temp\\\"quoted\"" and note = "line1\nline2" in
  Metrics.add_count m "wire_bytes" ~labels:[ ("path", path); ("note", note) ] 7;
  let text = Export.prometheus [ ("fleet", m) ] in
  let sample =
    match
      List.find_opt
        (fun l -> String.length l > 0 && l.[0] <> '#' && contains l "wire_bytes_total")
        (String.split_on_char '\n' text)
    with
    | Some l -> l
    | None -> Alcotest.failf "no wire_bytes_total sample in %S" text
  in
  (* The newline in the value was escaped — the sample stayed one line. *)
  check_has "escaped newline" sample "\\n";
  check_has "escaped quote" sample "\\\"";
  check_has "escaped backslash" sample "\\\\";
  let name, labels = parse_prom_sample sample in
  Alcotest.(check string) "metric name" "nearby_fleet_wire_bytes_total" name;
  Alcotest.(check string) "quoted/backslashed value round-trips" path
    (List.assoc "path" labels);
  Alcotest.(check string) "newline value round-trips" note (List.assoc "note" labels)

(* Handle writes are the hot path: a warm counter bump and a stream
   observe, untagged or tagged, add no minor-heap words.  The sample is
   bound once outside the loop, so the loop measures the write alone. *)
let test_handle_writes_allocate_nothing () =
  let m = Metrics.create () in
  let hits = Metrics.counter_ref m "hits" ~labels:[ ("kind", "query"); ("dir", "send") ] in
  let lat = Metrics.stream m "lat_ns" ~labels:[ ("backend", "tree") ] in
  let v = Sys.opaque_identity 1234.5 in
  let warm () =
    incr hits;
    Metrics.observe_stream lat v;
    Metrics.observe_traced lat ~trace_id:1 v
  in
  warm ();
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f i
    done;
    Gc.minor_words () -. before
  in
  (* The two [Gc.minor_words] reads box one float each. *)
  let baseline = words (fun _ -> ()) in
  let check what f = Alcotest.(check (float 0.0)) what baseline (words f) in
  check "counter bump" (fun _ -> incr hits);
  check "observe" (fun _ -> Metrics.observe_stream lat v);
  check "observe with trace_id" (fun i -> Metrics.observe_traced lat ~trace_id:i v);
  Alcotest.(check int) "bumps landed" 10_001
    (Metrics.counter m "hits" ~labels:[ ("dir", "send"); ("kind", "query") ]);
  Alcotest.(check int) "samples landed" 20_002
    (Option.get (Metrics.summary m "lat_ns" ~labels:[ ("backend", "tree") ])).count

(* Golden export: a fixed store — flat counters (one registered at zero),
   a stream with exemplars, an emptied section, labeled counters with a
   value needing escapes, a name already ending in _total, streams,
   gauges and an overflow series — must render export.expected: the JSON
   document byte for byte (first line), the Prometheus exposition as the
   same set of lines (the rest). *)
let golden_sections () =
  let run = Trace.create () in
  Trace.add_count run "joins" 3;
  Trace.add_count run "probe_packets" 42;
  ignore (Trace.counter_ref run "idle_cells");
  Trace.observe ~trace_id:7 run "join_ms" 3.0;
  Trace.observe ~trace_id:9 run "join_ms" 4.0;
  Trace.observe ~trace_id:11 run "join_ms" 1000.0;
  Trace.observe run "join_ms" 2000.0;
  List.iter (Trace.observe run "path.hops") [ 2.0; 4.0; 4.0; 7.5 ];
  let idle = Trace.create () in
  Trace.incr idle "x";
  Trace.observe idle "lat" 1.0;
  Trace.reset idle;
  let m = Metrics.create ~max_series_per_name:2 () in
  Metrics.add_count m "rpc_outcomes" ~labels:[ ("outcome", "ok") ] 12;
  Metrics.incr m "rpc_outcomes" ~labels:[ ("outcome", "timeout") ];
  Metrics.incr m "rpc_outcomes" ~labels:[ ("outcome", "gave_up") ];
  Metrics.incr m "rpc_outcomes" ~labels:[ ("outcome", "unserved") ];
  Metrics.add_count m "wire_bytes" ~labels:[ ("path", "C:\\temp\\\"q\""); ("note", "a\nb") ] 7;
  Metrics.add_count m "wire_bytes_total" ~labels:[ ("kind", "query"); ("dir", "send") ] 100;
  Metrics.add_count m "admission_submitted_total" 4;
  List.iter (Metrics.observe m "join_ms" ~labels:[ ("replica", "0") ]) [ 1.0; 2.0; 3.0 ];
  Metrics.observe m "join_ms" ~labels:[ ("replica", "1") ] 5.5;
  Metrics.set m "shard_members" ~labels:[ ("shard", "1") ] 7.0;
  Metrics.set m "members" 10.5;
  ([ ("run", run); ("idle", idle) ], m)

let test_export_golden () =
  let expected = In_channel.with_open_bin "export.expected" In_channel.input_all in
  let json, prom =
    match String.index_opt expected '\n' with
    | Some i ->
        (String.sub expected 0 (i + 1), String.sub expected (i + 1) (String.length expected - i - 1))
    | None -> Alcotest.fail "export.expected has no JSON line"
  in
  let sections, fleet = golden_sections () in
  Alcotest.(check string) "metrics_json byte-identical" json
    (Export.metrics_json ~labeled:[ ("fleet", fleet) ] sections);
  let lines text = List.sort compare (String.split_on_char '\n' text) in
  Alcotest.(check (list string)) "prometheus line set" (lines prom)
    (lines (Export.prometheus (sections @ [ ("fleet", fleet) ])))

(* Every BENCH_*.json emitter stamps through Export.bench_json, so all
   five artifacts carry exactly the same meta key set no matter which
   optional knobs a bench supplies — the per-bench parameters live under
   the single nested "params" object, never as ad-hoc top-level keys. *)
let test_bench_json_meta_keys () =
  let expected =
    [ "backends"; "date_utc"; "domains"; "git_rev"; "ocaml_version"; "params"; "seed"; "word_size" ]
  in
  let meta_keys doc_str =
    let doc = Json.parse_exn doc_str in
    match Json.member "meta" doc with
    | Some meta -> List.sort compare (Json.keys meta)
    | None -> Alcotest.failf "no meta in %s" doc_str
  in
  Alcotest.(check (list string))
    "all knobs" expected
    (meta_keys
       (Export.bench_json ~seed:1 ~backends:[ "tree" ]
          ~params:[ ("peers", "10"); ("loss", "0.3") ]
          [ ("wire", Json.Obj []) ]));
  Alcotest.(check (list string))
    "no knobs" expected
    (meta_keys (Export.bench_json [ ("runs", Json.List []) ]))

(* The acceptance scenario: a 3-replica cluster over sharded:4 exports one
   merged fleet-wide trace whose per-label p99s and merged p99 stay within
   the documented sketch error bound of the per-replica source traces. *)
let test_fleet_merged_trace_acceptance () =
  let config =
    {
      Eval.Fleet_obs.quick_config with
      routers = 400;
      peers = 60;
      replicas = 3;
      shards = 4;
      seed = 5;
    }
  in
  let r, t = Eval.Fleet_obs.run config in
  Alcotest.(check int) "all joins complete" config.peers r.completed;
  Alcotest.(check int) "no failures" 0 r.failed;
  let cluster = Eval.Fleet_obs.cluster t in
  Alcotest.(check int) "three replicas" 3 (Nearby.Cluster.replica_count cluster);
  let fleet = Eval.Fleet_obs.fleet_trace t in
  let bound = 2.0 *. Prelude.Sketch.default_alpha in
  (* Each replica's labeled scrape answers within the sketch bound of the
     replica's own source trace. *)
  let scraped = Eval.Fleet_obs.scrape t in
  for i = 0 to 2 do
    let labeled =
      match
        Metrics.quantile scraped "join_ms" ~labels:[ ("replica", string_of_int i) ] 0.99
      with
      | Some v -> v
      | None -> Alcotest.failf "replica %d: no labeled p99" i
    in
    let source =
      match
        Trace.quantile (Nearby.Server.trace (Nearby.Cluster.server_of cluster i))
          "join_ms" 0.99
      with
      | Some v -> v
      | None -> Alcotest.failf "replica %d: no source p99" i
    in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d labeled p99 %.3f within bound of source %.3f" i labeled
         source)
      true
      (Float.abs (labeled -. source) <= (bound *. Float.abs source) +. 1e-9)
  done;
  (* The merged fleet p99 lands inside the per-replica envelope, stretched
     by the sketch bound. *)
  let merged =
    match Trace.quantile fleet "join_ms" 0.99 with
    | Some v -> v
    | None -> Alcotest.fail "no merged fleet p99"
  in
  Alcotest.(check (float 1e-9)) "result exposes the merged p99" merged r.fleet_join_p99_ms;
  let lo = Array.fold_left Float.min infinity r.replica_join_p99_ms in
  let hi = Array.fold_left Float.max neg_infinity r.replica_join_p99_ms in
  Alcotest.(check bool)
    (Printf.sprintf "merged p99 %.3f within [%.3f, %.3f] envelope" merged lo hi)
    true
    (merged >= lo *. (1.0 -. bound) -. 1e-9 && merged <= hi *. (1.0 +. bound) +. 1e-9);
  (* The dashboard renders every panel headlessly, escape-free. *)
  let frame = Eval.Fleet_obs.render t in
  List.iter (check_has "render" frame)
    [
      "nearby fleet top";
      "[ops/s";
      "[join latency";
      "[slo]";
      "[rpc]";
      "[wire]";
      "[admission";
      "[runtime]";
      "[shards]";
    ];
  Alcotest.(check bool) "no escape sequences" true (not (String.contains frame '\027'));
  (* The generously-provisioned front door admits everything. *)
  let totals = Nearby.Admission.totals (Eval.Fleet_obs.admission t) in
  Alcotest.(check int) "admission passes every join" config.peers
    totals.Nearby.Admission.admitted;
  Alcotest.(check int) "healthy fleet sheds nothing" 0 totals.Nearby.Admission.shed_total

(* One Prometheus exposition sample line: a metric name, optional
   {k="v",...} labels with backslash escapes, one space, a non-blank
   value running to the end of the line. *)
let exposition_line_ok line =
  let n = String.length line in
  let name_char first c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
    | '0' .. '9' -> not first
    | _ -> false
  in
  let name i =
    if i < n && name_char true line.[i] then begin
      let j = ref (i + 1) in
      while !j < n && name_char false line.[!j] do
        incr j
      done;
      Some !j
    end
    else None
  in
  let rec value i =
    if i >= n then None
    else match line.[i] with
      | '\\' -> if i + 1 < n then value (i + 2) else None
      | '"' -> Some (i + 1)
      | _ -> value (i + 1)
  in
  let rec labels i =
    match name i with
    | Some j when j + 1 < n && line.[j] = '=' && line.[j + 1] = '"' -> (
        match value (j + 2) with
        | Some k when k < n && line.[k] = ',' -> labels (k + 1)
        | Some k when k < n && line.[k] = '}' -> Some (k + 1)
        | _ -> None)
    | _ -> None
  in
  let sample_value i =
    i < n && line.[i] = ' '
    && i + 1 < n
    && not (String.exists (fun c -> c = ' ' || c = '\t') (String.sub line (i + 1) (n - i - 1)))
  in
  match name 0 with
  | Some i when i < n && line.[i] = '{' -> (
      match labels (i + 1) with Some j -> sample_value j | None -> false)
  | Some i -> sample_value i
  | None -> false

(* The `top --once --quick --seed 1` run, checked end to end: per-replica
   labeled tails next to the merged fleet section, the runtime profile,
   the labeled exposition, and every dashboard panel. *)
let test_fleet_top_quick () =
  let t = Eval.Fleet_obs.start Eval.Fleet_obs.quick_config in
  Eval.Fleet_obs.advance t ~until:(Eval.Fleet_obs.horizon t);
  let frame = Eval.Fleet_obs.render t in
  let doc = Json.parse_exn (Eval.Fleet_obs.metrics_json t) in
  let get path = match Json.path path doc with Some v -> v | None -> Alcotest.failf "no %s" (String.concat "." path) in
  let num path j = match Option.bind (Json.path path j) Json.as_float with Some v -> v | None -> Alcotest.failf "no number %s" (String.concat "." path) in
  (* Per-replica labeled streams next to the merged fleet section. *)
  let rep_p99 =
    Option.get (Json.as_list (get [ "labeled"; "replicas"; "series" ]))
    |> List.filter_map (fun s ->
           if Json.member "name" s = Some (Json.String "join_ms")
              && Json.member "kind" s = Some (Json.String "stream")
           then
             Some
               ( Option.get (Option.bind (Json.path [ "labels"; "replica" ] s) Json.as_string),
                 num [ "stats"; "p99" ] s )
           else None)
  in
  Alcotest.(check (list string)) "replica p99s" [ "0"; "1"; "2" ]
    (List.sort compare (List.map fst rep_p99));
  let merged_p99 = num [ "sections"; "fleet"; "stats"; "join_ms"; "p99" ] doc in
  Alcotest.(check (float 0.0)) "merged count = cluster registrations"
    (num [ "sections"; "fleet"; "counters"; "cluster_register" ] doc)
    (num [ "sections"; "fleet"; "stats"; "join_ms"; "count" ] doc);
  (* The merged sketch p99 lands inside the per-replica envelope,
     stretched by twice the relative-error bound (both sides are sketch
     reads at alpha = 1%). *)
  let p99s = List.map snd rep_p99 in
  let lo = List.fold_left Float.min infinity p99s and hi = List.fold_left Float.max neg_infinity p99s in
  Alcotest.(check bool)
    (Printf.sprintf "merged p99 %g in [%g, %g]" merged_p99 lo hi)
    true
    ((lo *. 0.98) -. 1e-9 <= merged_p99 && merged_p99 <= (hi *. 1.02) +. 1e-9);
  (* Runtime profile: phased GC deltas plus the domain-pool snapshot. *)
  let phases = Json.keys (get [ "runtime"; "phases" ]) in
  List.iter (fun p -> Alcotest.(check bool) ("phase " ^ p) true (List.mem p phases)) [ "build"; "run" ];
  Alcotest.(check bool) "domain_pool snapshot" true (Json.path [ "runtime"; "domain_pool" ] doc <> None);
  (* Labeled exposition: specific series present, every sample line
     well-formed. *)
  let prom = Eval.Fleet_obs.prometheus t in
  List.iter (check_has "exposition" prom)
    [
      "nearby_replicas_join_ms{replica=\"0\",quantile=\"0.99\"}";
      "nearby_fleet_rpc_outcomes_total{outcome=\"ok\"}";
      "nearby_fleet_registry_shard_members{";
    ];
  String.split_on_char '\n' prom
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' && not (exposition_line_ok l) then
           Alcotest.failf "malformed exposition line %S" l);
  (* The dashboard frame renders every panel, escape-free. *)
  List.iter (check_has "frame" frame)
    [
      "nearby fleet top"; "[ops/s"; "[join latency"; "[slo]"; "[rpc]"; "[wire]"; "[health]";
      "[admission"; "[runtime]"; "[shards]";
    ];
  Alcotest.(check bool) "no escape sequences" false (String.contains frame '\027');
  (* State health: digest polls ran, the healthy fleet never diverges at
     rest, report staleness is tracked. *)
  check_has "health" frame "digest checks=";
  check_has "health" frame "divergent_now=0";
  Alcotest.(check bool) "never flagged divergent" false (contains frame "[DIVERGED]");
  check_has "health" frame "staleness: report age";
  (* Wire: live traffic, and every report fanned out verbatim to the other
     two replicas. *)
  Alcotest.(check bool) "wire panel saw traffic" false (contains frame "total=0B");
  let amplification =
    let key = "amplification=" in
    let rec find i =
      if i + String.length key > String.length frame then Alcotest.fail "no amplification"
      else if String.sub frame i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    let start = find 0 in
    let stop = String.index_from frame start 'x' in
    float_of_string (String.sub frame start (stop - start))
  in
  Alcotest.(check (float 0.01)) "replication amplification" 3.0 amplification;
  (* The generously-provisioned front door admits every join. *)
  check_has "admission" frame "shed: none"

let suite =
  ( "metrics",
    [
      Alcotest.test_case "canonical key" `Quick test_canonical_key;
      Alcotest.test_case "label order insensitive" `Quick test_label_order_insensitive;
      Alcotest.test_case "counter/stream/gauge roundtrip" `Quick
        test_counter_stream_gauge_roundtrip;
      Alcotest.test_case "cardinality cap" `Quick test_cardinality_cap;
      Alcotest.test_case "merge_trace under label" `Quick test_merge_trace_under_label;
      Alcotest.test_case "merge_into" `Quick test_merge_into;
      Alcotest.test_case "labeled exporters" `Quick test_prometheus_labeled;
      Alcotest.test_case "one answer per stream" `Quick test_one_answer_per_stream;
      Alcotest.test_case "exposition escaping round-trips" `Quick
        test_prometheus_labeled_escaping;
      Alcotest.test_case "handle writes allocate nothing" `Quick
        test_handle_writes_allocate_nothing;
      Alcotest.test_case "export golden" `Quick test_export_golden;
      Alcotest.test_case "bench_json meta keys identical" `Quick test_bench_json_meta_keys;
      Alcotest.test_case "fleet merged-trace acceptance" `Slow
        test_fleet_merged_trace_acceptance;
      Alcotest.test_case "fleet top quick run" `Slow test_fleet_top_quick;
    ] )
