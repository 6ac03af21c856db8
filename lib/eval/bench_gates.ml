(* Gate tables for the bench documents written by bench/main.ml itself
   (BENCH_registry.json, BENCH_obs.json), and the file → table index the
   regression gate walks.  CI machines differ wildly in absolute speed,
   so every timing metric here is normalized to the tree backend
   measured in the same run. *)

open Regression

let backend = element [ "backends" ] ~key:(fields [ "backend" ])

(* A backend's number relative to the tree row of the same document. *)
let rel_tree path b doc = num path (backend b doc) /. num path (backend "tree" doc)

(* The scaling sweep: per point, exact structural gates (member counts,
   cross-backend answer equivalence) plus sharded-vs-tree query
   throughput and bytes/member (a pure allocation count, so it needs no
   normalization, only slack for rounding).  Points above 100k members
   are not gated: the CI job sweeps to 100k (--sweep-max 100000), and a
   metric present in the baseline but missing from the current document
   fails by design. *)
let sweep =
  let point = element [ "sweep" ] ~key:(fields [ "n"; "backend" ]) in
  each [ "sweep" ]
    ~where:(fun el -> num [ "n" ] el <= 100_000.0)
    ~key:(fields [ "n"; "backend" ])
    (fun el this ->
      let n = fields [ "n" ] el and b = fields [ "backend" ] el in
      let name metric = Printf.sprintf "registry/sweep/%s/%s/%s" n b metric in
      let structural =
        [
          row Exact (name "answers_identical") (fun doc -> flag [ "answers_identical" ] (this doc));
          row Exact (name "members") (fun doc -> num [ "members" ] (this doc));
          row Lower_better ~tolerance:0.5 (name "bytes_per_member") (fun doc ->
              num [ "approx_bytes" ] (this doc) /. Float.max 1.0 (num [ "members" ] (this doc)));
        ]
      in
      if b = "tree" then structural
      else
        row Higher_better ~tolerance:0.5 (name "query_rel_tree") (fun doc ->
            num [ "query_ops_per_s" ] (this doc)
            /. num [ "query_ops_per_s" ] (point (n ^ "/tree") doc))
        :: structural)

(* Batch writes on the tree: per batch size and population, per-entry
   time over the single insert's of the same run, and the single insert's
   time at 100k over 10k (the O(log n) insertion claim).  Both are ratios
   of timings from one run, so machine speed cancels.  Like the other
   sections, rows expand only where the document has them. *)
let batch =
  concat
    [
      each [ "batch"; "rows" ] ~key:(fields [ "n"; "batch" ]) (fun el this ->
          [
            row Lower_better ~tolerance:0.5
              (Printf.sprintf "registry/batch/%s/insert_many_rel_insert"
                 (fields [ "n"; "batch" ] el))
              (fun doc -> num [ "insert_many_rel_insert" ] (this doc));
          ]);
      (fun doc ->
        let growth = [ "batch"; "insert_growth" ] in
        if Simkit.Json.path growth doc = None then []
        else [ row Lower_better ~tolerance:0.5 "registry/batch/insert_growth" (num growth) ]);
    ]

(* BENCH_registry.json: throughput relative to the tree backend of the
   same run, plus the answers-identical invariant. *)
let registry =
  concat
    [
      each [ "backends" ] ~key:(fields [ "backend" ]) (fun el this ->
          let b = fields [ "backend" ] el in
          let identical =
            row Exact
              (Printf.sprintf "registry/%s/answers_identical" b)
              (fun doc -> flag [ "answers_identical" ] (this doc))
          in
          if b = "tree" then [ identical ]
          else
            [
              row Higher_better ~tolerance:0.6
                (Printf.sprintf "registry/%s/insert_rel_tree" b)
                (rel_tree [ "insert_ops_per_s" ] b);
              row Higher_better ~tolerance:0.6
                (Printf.sprintf "registry/%s/query_rel_tree" b)
                (rel_tree [ "query_ops_per_s" ] b);
              identical;
            ]);
      sweep;
      batch;
    ]

(* The sweep's own sanity rules, judged on the document [bench registry]
   writes: exactly the sizes it ran, and per row members = n, 100..2000
   bytes per member, answers identical to the tree's and both throughputs
   positive. *)
let sweep_sanity ~sizes doc =
  let rows = elements [ "sweep" ] doc in
  let ns = List.sort_uniq compare (List.map (fun r -> int_of_float (num [ "n" ] r)) rows) in
  let expected = List.sort_uniq compare sizes in
  let show ns = String.concat ", " (List.map string_of_int ns) in
  let per_row r =
    let who = fields [ "backend" ] r ^ "@" ^ fields [ "n" ] r in
    try
      let members = num [ "members" ] r in
      let bytes_per_member = num [ "approx_bytes" ] r /. members in
      List.filter_map
        (fun (ok, problem) -> if ok then None else Some (who ^ ": " ^ problem))
        [
          (members = num [ "n" ] r, Printf.sprintf "members %.0f != n" members);
          ( bytes_per_member >= 100.0 && bytes_per_member <= 2000.0,
            Printf.sprintf "%.0f B/member out of bounds" bytes_per_member );
          (flag [ "answers_identical" ] r = 1.0, "answers diverge from tree");
          ( num [ "insert_ops_per_s" ] r > 0.0 && num [ "query_ops_per_s" ] r > 0.0,
            "throughput not positive" );
        ]
    with Failure msg -> [ who ^ ": " ^ msg ]
  in
  (if rows = [] then [ "sweep section is empty" ] else [])
  @ (if ns = expected then []
     else [ Printf.sprintf "sweep sizes [%s], expected [%s]" (show ns) (show expected) ])
  @ List.concat_map per_row rows

(* BENCH_obs.json: p99 latency relative to the tree backend — tails are
   the noisiest numbers gated, hence the widest tolerance.  The exemplar
   and introspection counts are deterministic in the seed: exemplars must
   be present (the trace-id tagging path stays wired up) and the
   structural counts must not drift.  The sketch's measured fidelity is a
   pure function of the seed, so it gates tightly; the merged fleet view
   runs on the simulated clock (resilience-style tolerances). *)
let obs =
  concat
    [
      each [ "backends" ] ~key:(fields [ "backend" ]) (fun el this ->
          let b = fields [ "backend" ] el in
          let name metric = Printf.sprintf "obs/%s/%s" b metric in
          let structural =
            [
              row Exact (name "exemplars_present") (fun doc ->
                  bit
                    (num [ "insert_exemplars" ] (this doc) > 0.0
                    && num [ "query_exemplars" ] (this doc) > 0.0));
              row Exact (name "introspect_members") (fun doc ->
                  num [ "introspect"; "members" ] (this doc));
              row Exact (name "introspect_routers") (fun doc ->
                  num [ "introspect"; "routers" ] (this doc));
            ]
          in
          if b = "tree" then structural
          else
            row Lower_better ~tolerance:1.5 (name "insert_p99_rel_tree")
              (rel_tree [ "insert_ns"; "p99" ] b)
            :: row Lower_better ~tolerance:1.5 (name "query_p99_rel_tree")
                 (rel_tree [ "query_ns"; "p99" ] b)
            :: structural);
      rows
        [
          row Exact "obs/sketch/within_bound" (flag [ "sketch"; "within_bound" ]);
          row Lower_better ~tolerance:0.5 "obs/sketch/max_rel_err" (num [ "sketch"; "max_rel_err" ]);
          row Higher_better ~tolerance:0.02 "obs/fleet/completion_rate"
            (num [ "fleet"; "completion_rate" ]);
          row Lower_better ~tolerance:0.15 "obs/fleet/merged_p99_ms" (num [ "fleet"; "merged_p99_ms" ]);
          row Exact "obs/fleet/within_bound" (flag [ "fleet"; "within_bound" ]);
          row Lower_better ~tolerance:0.5 "obs/fleet/shard_skew" (num [ "fleet"; "shard_skew" ]);
          row Lower_better ~tolerance:1.5 "obs/observe/instrumented_query_ratio"
            (num [ "observe"; "instrumented_query_ratio" ]);
        ];
    ]

let all =
  [
    ("BENCH_registry.json", registry);
    ("BENCH_obs.json", obs);
    ("BENCH_resilience.json", Resilience_exp.gate);
    ("BENCH_load.json", Load_exp.gate);
    ("BENCH_wire.json", Regression.concat [ Wire_exp.gate; Dispatch_exp.gate ]);
    ("BENCH_health.json", Health_exp.gate);
  ]
