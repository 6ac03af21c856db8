type meta = {
  git_rev : string;
  date_utc : string;
  seed : int option;
  backends : string list;
  ocaml_version : string;
  word_size : int;
  domains : int;
  extra : (string * string) list;
}

let git_rev () =
  (* Best effort: metrics files must be writable from any checkout state. *)
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> String.trim line
    | _ -> "unknown"
  with _ -> "unknown"

let utc_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let capture_meta ?seed ?(backends = []) ?(extra = []) () =
  {
    git_rev = git_rev ();
    date_utc = utc_now ();
    seed;
    backends;
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    domains = Domain.recommended_domain_count ();
    extra;
  }

let meta_base_fields m =
  [
    ("git_rev", Json.String m.git_rev);
    ("date_utc", Json.String m.date_utc);
    ("seed", Json.option (fun s -> Json.Int s) m.seed);
    ("backends", Json.List (List.map (fun b -> Json.String b) m.backends));
    ("ocaml_version", Json.String m.ocaml_version);
    ("word_size", Json.Int m.word_size);
    ("domains", Json.Int m.domains);
  ]

let strings pairs = List.map (fun (k, v) -> (k, Json.String v)) pairs
let meta_json m = Json.Obj (meta_base_fields m @ strings m.extra)

(* The one place every BENCH_*.json stamps its run metadata.  The base
   toolchain keys are fixed and bench-specific knobs live under a single
   "params" object, so every emitted bench file carries the identical
   meta key set: git_rev, date_utc, seed, backends, ocaml_version,
   word_size, domains, params (locked by the suite). *)
let bench_json ?seed ?backends ?(params = []) fields =
  let m = capture_meta ?seed ?backends () in
  let meta = Json.Obj (meta_base_fields m @ [ ("params", Json.Obj (strings params)) ]) in
  Json.to_string (Json.Obj (("meta", meta) :: fields))

let exemplar_json (e : Trace.exemplar) =
  Json.Obj
    [
      ("bucket", Json.Int e.bucket);
      ("trace_id", Json.Int e.trace_id);
      ("value", Json.Number e.value);
    ]

let summary_json ?(exemplars = []) (s : Trace.summary) hist =
  let hist_json =
    match hist with
    | None -> []
    | Some h ->
        List.map (fun (b, c) -> Json.List [ Json.Int b; Json.Int c ]) (Prelude.Histogram.to_assoc h)
  in
  Json.Obj
    ([
       ("count", Json.Int s.Trace.count);
       ("mean", Json.Number s.Trace.mean);
       ("stddev", Json.Number s.Trace.stddev);
       ("ci95", Json.Number s.Trace.ci95);
       ("min", Json.option (fun v -> Json.Number v) s.Trace.min);
       ("max", Json.option (fun v -> Json.Number v) s.Trace.max);
       ("p50", Json.Number s.Trace.p50);
       ("p90", Json.Number s.Trace.p90);
       ("p99", Json.Number s.Trace.p99);
       ("log2_hist", Json.List hist_json);
     ]
    @
    match exemplars with
    | [] -> []
    | es -> [ ("exemplars", Json.List (List.map exemplar_json es)) ])

let section_json trace =
  let counters = List.map (fun (name, v) -> (name, Json.Int v)) (Trace.counters trace) in
  let stats =
    Trace.summaries trace
    |> List.map (fun (name, s) ->
           ( name,
             summary_json ~exemplars:(Trace.exemplars trace name) s (Trace.hist trace name) ))
  in
  Json.Obj [ ("counters", Json.Obj counters); ("stats", Json.Obj stats) ]

(* One labeled registry as nested JSON: every series carries its parsed
   identity (base name + label object) next to its rendered value, so a
   consumer never has to re-parse canonical `name{k="v"}` keys. *)
let labeled_json m =
  let trace = Metrics.trace m in
  let counters = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace counters k v) (Trace.counters trace);
  let gauges = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace gauges k v) (Metrics.gauge_bindings m);
  let series =
    Metrics.series m
    |> List.concat_map (fun (name, labels, key) ->
           let entry kind fields =
             Json.Obj
               ([
                  ("name", Json.String name);
                  ("labels", Json.Obj (strings labels));
                  ("kind", Json.String kind);
                ]
               @ fields)
           in
           let counter =
             match Hashtbl.find_opt counters key with
             | Some v -> [ entry "counter" [ ("value", Json.Int v) ] ]
             | None -> []
           in
           let stream =
             match Trace.summary trace key with
             | Some s ->
                 [ entry "stream"
                     [ ("stats",
                        summary_json ~exemplars:(Trace.exemplars trace key) s
                          (Trace.hist trace key)) ] ]
             | None -> []
           in
           let gauge =
             match Hashtbl.find_opt gauges key with
             | Some v -> [ entry "gauge" [ ("value", Json.Number v) ] ]
             | None -> []
           in
           counter @ stream @ gauge)
  in
  Json.Obj
    [ ("series", Json.List series); ("overflow_routed", Json.Int (Metrics.overflow_routed m)) ]

let metrics_json ?meta ?(timeseries = []) ?(labeled = []) ?runtime sections =
  let named f items = Json.Obj (List.map (fun (name, x) -> (name, f x)) items) in
  let optional key = function [] -> [] | fields -> [ (key, Json.Obj fields) ] in
  Json.to_string
    (Json.Obj
       (Option.fold ~none:[] ~some:(fun m -> [ ("meta", meta_json m) ]) meta
       @ [ ("sections", named section_json sections) ]
       @ optional "labeled" (List.map (fun (name, m) -> (name, labeled_json m)) labeled)
       @ Option.fold ~none:[] ~some:(fun rp -> [ ("runtime", Runtime_profile.to_json rp) ]) runtime
       @ optional "timeseries" (List.map (fun (name, t) -> (name, Timeseries.to_json t)) timeseries)))
  ^ "\n"

(* --- Prometheus text exposition ------------------------------------- *)

let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name
  in
  (* A metric name may not start with a digit in the exposition format. *)
  if mapped = "" then "_"
  else match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped

(* Prometheus accepts NaN sample values; use them rather than dropping the
   series so an empty stream is still visible in the scrape. *)
let prom_number v = if Float.is_nan v then "NaN" else Json.to_string (Json.Number v)

let prometheus ?(prefix = "nearby") sections =
  let prefix = sanitize prefix in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (section, trace) ->
      let base name = Printf.sprintf "%s_%s_%s" prefix (sanitize section) (sanitize name) in
      List.iter
        (fun (name, v) ->
          let metric = base name ^ "_total" in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" metric metric v))
        (Trace.counters trace);
      List.iter
        (fun (name, (s : Trace.summary)) ->
          let metric = base name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" metric);
          List.iter
            (fun (q, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" metric q (prom_number v)))
            [ ("0.5", s.Trace.p50); ("0.9", s.Trace.p90); ("0.99", s.Trace.p99) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" metric (prom_number (s.Trace.mean *. float_of_int s.Trace.count)));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" metric s.Trace.count);
          (* Streams with tagged samples additionally expose their log2
             histogram, each bucket line carrying its latest exemplar in the
             OpenMetrics style: `... # {trace_id="N"} value`.  Plain
             Prometheus parsers treat the suffix as a comment. *)
          match (Trace.exemplars trace name, Trace.hist trace name) with
          | [], _ | _, None -> ()
          | exemplars, Some h ->
              let hist_metric = metric ^ "_hist" in
              Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" hist_metric);
              let cumulative = ref 0 in
              List.iter
                (fun (bucket, count) ->
                  cumulative := !cumulative + count;
                  let le = Printf.sprintf "%g" (Float.pow 2.0 (float_of_int bucket)) in
                  let exemplar =
                    match
                      List.find_opt (fun (e : Trace.exemplar) -> e.bucket = bucket) exemplars
                    with
                    | Some e ->
                        Printf.sprintf " # {trace_id=\"%d\"} %s" e.trace_id
                          (prom_number e.value)
                    | None -> ""
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket{le=\"%s\"} %d%s\n" hist_metric le !cumulative
                       exemplar))
                (Prelude.Histogram.to_assoc h);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" hist_metric
                   (Prelude.Histogram.total h));
              Buffer.add_string buf (Printf.sprintf "%s_count %d\n" hist_metric (Prelude.Histogram.total h)))
        (Trace.summaries trace))
    sections;
  Buffer.contents buf

(* Label pairs rendered to the exposition grammar: sorted keys sanitized
   like metric names, values backslash-escaped (a JSON string literal is
   a valid quoted label value for every escape the grammar defines).  [extra] appends
   renderer-owned labels (e.g. quantile) after the user's. *)
let prom_labels ?(extra = []) labels =
  match labels @ extra with
  | [] -> ""
  | pairs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> sanitize k ^ "=" ^ Json.to_string (Json.String v))
             pairs)
      ^ "}"

let prometheus_labeled ?(prefix = "nearby") sections =
  let prefix = sanitize prefix in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (section, m) ->
      let trace = Metrics.trace m in
      let counters = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace counters k v) (Trace.counters trace);
      let gauges = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace gauges k v) (Metrics.gauge_bindings m);
      let typed = Hashtbl.create 16 in
      let emit_type metric kind =
        if not (Hashtbl.mem typed metric) then begin
          Hashtbl.add typed metric ();
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" metric kind)
        end
      in
      List.iter
        (fun (name, labels, key) ->
          let metric =
            Printf.sprintf "%s_%s_%s" prefix (sanitize section) (sanitize name)
          in
          (match Hashtbl.find_opt counters key with
          | Some v ->
              (* Counters get the conventional _total suffix — unless the
                 source name already carries it (wire_bytes_total etc.). *)
              let metric =
                if String.ends_with ~suffix:"_total" metric then metric
                else metric ^ "_total"
              in
              emit_type metric "counter";
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" metric (prom_labels labels) v)
          | None -> ());
          (match Trace.summary trace key with
          | Some s ->
              emit_type metric "summary";
              List.iter
                (fun (q, v) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s%s %s\n" metric
                       (prom_labels ~extra:[ ("quantile", q) ] labels)
                       (prom_number v)))
                [ ("0.5", s.Trace.p50); ("0.9", s.Trace.p90); ("0.99", s.Trace.p99) ];
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" metric (prom_labels labels)
                   (prom_number (s.Trace.mean *. float_of_int s.Trace.count)));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" metric (prom_labels labels)
                   s.Trace.count)
          | None -> ());
          match Hashtbl.find_opt gauges key with
          | Some v ->
              emit_type metric "gauge";
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" metric (prom_labels labels) (prom_number v))
          | None -> ())
        (Metrics.series m))
    sections;
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_bench ~path ?seed ?backends ?params fields =
  write_file path (bench_json ?seed ?backends ?params fields)
