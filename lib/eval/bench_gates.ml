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
    ]

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
        ];
    ]

let all =
  [
    ("BENCH_registry.json", registry);
    ("BENCH_obs.json", obs);
    ("BENCH_resilience.json", Resilience_exp.gate);
    ("BENCH_load.json", Load_exp.gate);
    ("BENCH_wire.json", Wire_exp.gate);
    ("BENCH_health.json", Health_exp.gate);
  ]
