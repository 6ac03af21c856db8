(* The dependency-free JSON reader and the bench regression gate built on
   top of it. *)

let parse_exn s =
  match Simkit.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%S: %s" s e)

(* --- Simkit.Json ------------------------------------------------------- *)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (parse_exn "null" = Simkit.Json.Null);
  Alcotest.(check bool) "true" true (parse_exn "true" = Simkit.Json.Bool true);
  Alcotest.(check (option (float 1e-9))) "int" (Some 42.0)
    (Simkit.Json.as_float (parse_exn "42"));
  Alcotest.(check (option (float 1e-9))) "negative exponent" (Some (-1.5e3))
    (Simkit.Json.as_float (parse_exn "-1.5e3"));
  Alcotest.(check (option string)) "escapes" (Some "a\"b\\c\n")
    (Simkit.Json.as_string (parse_exn "\"a\\\"b\\\\c\\n\""))

let test_json_structures () =
  let doc = parse_exn {| {"meta": {"seed": 7}, "runs": [1, 2, 3], "flag": false} |} in
  Alcotest.(check (option (float 1e-9))) "path" (Some 7.0)
    (Option.bind (Simkit.Json.path [ "meta"; "seed" ] doc) Simkit.Json.as_float);
  Alcotest.(check (option bool)) "bool member" (Some false)
    (Option.bind (Simkit.Json.member "flag" doc) Simkit.Json.as_bool);
  (match Option.bind (Simkit.Json.member "runs" doc) Simkit.Json.as_list with
  | Some l -> Alcotest.(check int) "array length" 3 (List.length l)
  | None -> Alcotest.fail "runs not a list");
  Alcotest.(check bool) "missing member" true (Simkit.Json.member "nope" doc = None)

let test_json_rejects_garbage () =
  let rejects s =
    match Simkit.Json.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
  in
  rejects "";
  rejects "{";
  rejects "[1, 2,]";
  rejects "{\"a\" 1}";
  rejects "1 2" (* trailing content *);
  rejects "nul";
  (* RFC 8259 numbers and escapes, stricter than float_of_string /
     int_of_string: no digit separators, leading zeros or bare points. *)
  rejects "\"\\u0_41\"";
  rejects "01";
  rejects "1.";
  rejects "-.5"

let test_json_roundtrips_own_exporters () =
  (* Everything this repo writes must be readable by its own reader. *)
  let t = Simkit.Trace.create () in
  Simkit.Trace.incr t "joins";
  List.iter (Simkit.Trace.observe t "lat") [ 1.0; 5.0; 9.0 ];
  let ts = Simkit.Timeseries.create ~window_ms:10.0 () in
  Simkit.Timeseries.observe ts "lat" ~now:0.0 1.0;
  Simkit.Timeseries.observe ts "lat" ~now:25.0 2.0;
  let doc =
    Simkit.Export.metrics_json
      ~meta:(Simkit.Export.capture_meta ~seed:3 ())
      ~timeseries:[ ("run", ts) ]
      [ ("server", t) ]
  in
  let parsed = parse_exn doc in
  Alcotest.(check (option (float 1e-9))) "counter via reader" (Some 1.0)
    (Option.bind
       (Simkit.Json.path [ "sections"; "server"; "counters"; "joins" ] parsed)
       Simkit.Json.as_float);
  Alcotest.(check bool) "timeseries key readable" true
    (Simkit.Json.path [ "timeseries"; "run"; "series"; "lat" ] parsed <> None)

(* --- Simkit.Json printer ------------------------------------------------- *)

(* Values the printer represents exactly: strings of any bytes (quotes,
   backslashes, control characters included), nested lists and objects,
   finite floats already rounded to the printer's 9 significant digits,
   and ints a float holds exactly. *)
let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\x00'; '\x1f' ] ]) (0 -- 12) in
  let finite =
    map (fun v -> float_of_string (Printf.sprintf "%.9g" v)) (oneof [ float; map float_of_int int ])
    |> map (fun v -> if Float.is_finite v then v else 0.0)
  in
  let scalar =
    oneof
      [
        return Simkit.Json.Null;
        map (fun b -> Simkit.Json.Bool b) bool;
        map (fun v -> Simkit.Json.Number v) finite;
        map (fun i -> Simkit.Json.Int i) (int_range (-(1 lsl 53)) (1 lsl 53));
        map (fun s -> Simkit.Json.String s) str;
      ]
  in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (1, scalar);
               (1, map (fun vs -> Simkit.Json.List vs) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map (fun kvs -> Simkit.Json.Obj kvs) (list_size (0 -- 4) (pair str (self (n - 1))))
               );
             ])

(* The reader yields every number as a [Number]. *)
let rec as_read : Simkit.Json.t -> Simkit.Json.t = function
  | Int i -> Number (float_of_int i)
  | List vs -> List (List.map as_read vs)
  | Obj fields -> Obj (List.map (fun (k, v) -> (k, as_read v)) fields)
  | v -> v

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Simkit.Json.to_string json_gen)
    (fun v -> Simkit.Json.parse (Simkit.Json.to_string v) = Ok (as_read v))

let test_json_non_finite_null () =
  List.iter
    (fun v ->
      Alcotest.(check string) (Printf.sprintf "%h" v) "null" (Simkit.Json.to_string (Simkit.Json.Number v)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "integers without a fraction, ints exact"
    "[3, -2, 1.5, 0.1, 4611686018427387903]"
    (Simkit.Json.to_string
       (Simkit.Json.List
          [
            Simkit.Json.Int 3;
            Simkit.Json.Number (-2.0);
            Simkit.Json.Number 1.5;
            Simkit.Json.Number 0.1;
            Simkit.Json.Int max_int;
          ]))

(* --- Regression gate ------------------------------------------------------ *)

module R = Eval.Regression

let names comparisons = List.map (fun (c : R.comparison) -> c.name) comparisons

let registry_doc ~dht_query =
  parse_exn
    (Printf.sprintf
       {| {"backends": [
            {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
             "answers_identical": true},
            {"backend": "dht", "insert_ops_per_s": 500.0, "query_ops_per_s": %g,
             "answers_identical": true}
          ]} |}
       dht_query)

let registry_failures ~baseline ~current =
  R.failures (R.compare_docs Eval.Bench_gates.registry ~baseline ~current)

let test_gate_passes_identical () =
  let doc = registry_doc ~dht_query:1000.0 in
  Alcotest.(check int) "no failures" 0
    (List.length (registry_failures ~baseline:doc ~current:doc))

let test_gate_normalizes_to_tree () =
  (* Both backends 2x slower in absolute terms: relative metrics are
     unchanged, so a slower CI machine does not fail the gate. *)
  let scaled =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 500.0, "query_ops_per_s": 1000.0,
            "answers_identical": true},
           {"backend": "dht", "insert_ops_per_s": 250.0, "query_ops_per_s": 500.0,
            "answers_identical": true}
         ]} |}
  in
  Alcotest.(check int) "machine speed cancels" 0
    (List.length (registry_failures ~baseline:(registry_doc ~dht_query:1000.0) ~current:scaled))

let test_gate_catches_relative_regression () =
  (* dht query throughput drops 80% relative to tree — beyond the 60%
     tolerance. *)
  Alcotest.(check (list string)) "exactly the degraded metric"
    [ "registry/dht/query_rel_tree" ]
    (names
       (registry_failures ~baseline:(registry_doc ~dht_query:1000.0)
          ~current:(registry_doc ~dht_query:200.0)))

let test_gate_fails_on_flipped_invariant () =
  let broken =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
            "answers_identical": true},
           {"backend": "dht", "insert_ops_per_s": 500.0, "query_ops_per_s": 1000.0,
            "answers_identical": false}
         ]} |}
  in
  Alcotest.(check bool) "exact boolean gates" true
    (List.mem "registry/dht/answers_identical"
       (names (registry_failures ~baseline:(registry_doc ~dht_query:1000.0) ~current:broken)))

let test_gate_fails_on_missing_metric () =
  let shrunk =
    parse_exn
      {| {"backends": [
           {"backend": "tree", "insert_ops_per_s": 1000.0, "query_ops_per_s": 2000.0,
            "answers_identical": true}
         ]} |}
  in
  let failures = registry_failures ~baseline:(registry_doc ~dht_query:1000.0) ~current:shrunk in
  Alcotest.(check int) "every dht metric missing fails" 3 (List.length failures);
  List.iter
    (fun (c : R.comparison) -> Alcotest.(check bool) "flagged as missing" true (c.current = None))
    failures

let test_resilience_metrics_shape () =
  let doc p99 =
    parse_exn
      (Printf.sprintf
         {| {"runs": [
              {"scenario": "crash-primary", "replicas": 3, "completion_rate": 1.0,
               "join_p99_ms": %g, "consistent": true}
            ]} |}
         p99)
  in
  let baseline = doc 120.5 in
  Alcotest.(check (list string)) "per scenario x replicas keys"
    [
      "resilience/crash-primary/r3/completion_rate";
      "resilience/crash-primary/r3/join_p99_ms";
      "resilience/crash-primary/r3/consistent";
    ]
    (List.map (fun (r : R.row) -> r.name) (R.gated Eval.Resilience_exp.gate baseline));
  (* join_p99 is Lower_better: a 10% slowdown sits inside the 15% band,
     a 30% one does not. *)
  let failures f =
    List.length
      (R.failures
         (R.compare_docs Eval.Resilience_exp.gate ~baseline ~current:(doc (120.5 *. f))))
  in
  Alcotest.(check int) "10%% slower passes" 0 (failures 1.10);
  Alcotest.(check int) "30%% slower fails" 1 (failures 1.30)

let suite =
  ( "regression-gate",
    [
      Alcotest.test_case "json scalars" `Quick test_json_scalars;
      Alcotest.test_case "json structures" `Quick test_json_structures;
      Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
      Alcotest.test_case "json reads own exporters" `Quick test_json_roundtrips_own_exporters;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
        prop_print_parse_roundtrip;
      Alcotest.test_case "json non-finite prints null" `Quick test_json_non_finite_null;
      Alcotest.test_case "identical docs pass" `Quick test_gate_passes_identical;
      Alcotest.test_case "machine speed cancels" `Quick test_gate_normalizes_to_tree;
      Alcotest.test_case "relative regression fails" `Quick test_gate_catches_relative_regression;
      Alcotest.test_case "flipped invariant fails" `Quick test_gate_fails_on_flipped_invariant;
      Alcotest.test_case "missing metric fails" `Quick test_gate_fails_on_missing_metric;
      Alcotest.test_case "resilience tolerances" `Quick test_resilience_metrics_shape;
    ] )
