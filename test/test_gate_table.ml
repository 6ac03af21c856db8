(* The golden gate table: every metric the bench regression gate judges,
   expanded over the committed baselines as
   [name direction tolerance baseline_value], one line each, must match
   gate_table.expected byte for byte.  A refactor of the gate that adds,
   drops or re-tunes a metric shows up here as a diff. *)

let baseline_dir = Filename.concat ".." (Filename.concat "bench" "baselines")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let direction_name = function
  | Eval.Regression.Higher_better -> "higher"
  | Lower_better -> "lower"
  | Exact -> "exact"
  | Invariant -> "invariant"

let gate_lines () =
  List.concat_map
    (fun (file, table) ->
      let doc = Simkit.Json.parse_exn (read_file (Filename.concat baseline_dir file)) in
      Eval.Regression.gated table doc
      |> List.map (fun (r : Eval.Regression.row) ->
             Printf.sprintf "%s %s %g %.17g" r.name (direction_name r.direction) r.tolerance
               (r.value doc)))
    Eval.Bench_gates.all

let test_matches_golden () =
  let expected = String.split_on_char '\n' (String.trim (read_file "gate_table.expected")) in
  Alcotest.(check (list string)) "gate table" expected (gate_lines ())

let baseline file = Simkit.Json.parse_exn (read_file (Filename.concat baseline_dir file))

let test_invariants_hold_on_baselines () =
  List.iter
    (fun (file, table) ->
      List.iter
        (fun (c : Eval.Regression.comparison) ->
          Alcotest.(check bool) (file ^ " " ^ c.name) true c.ok)
        (Eval.Regression.check_invariants table (baseline file)))
    Eval.Bench_gates.all;
  let count file =
    List.length
      (Eval.Regression.check_invariants (List.assoc file Eval.Bench_gates.all) (baseline file))
  in
  (* One invariant per assertion of the former CI smoke scripts. *)
  Alcotest.(check int) "wire invariants" 14 (count "BENCH_wire.json");
  Alcotest.(check int) "health invariants" 14 (count "BENCH_health.json")

(* [set path v doc] replaces the value at [path]; a list on the way is
   updated element by element. *)
let rec set path v (doc : Simkit.Json.t) : Simkit.Json.t =
  match (path, doc) with
  | [], _ -> v
  | _, List vs -> List (List.map (set path v) vs)
  | key :: rest, Obj fields ->
      Obj (List.map (fun (k, x) -> if k = key then (k, set rest v x) else (k, x)) fields)
  | _ -> doc

let test_mutated_documents_fail () =
  List.iter
    (fun (file, path, v, expected) ->
      let doc = baseline file in
      let table = List.assoc file Eval.Bench_gates.all in
      Alcotest.(check int) (file ^ " passes against itself") 0
        (List.length (Eval.Regression.failures (Eval.Regression.compare_docs table ~baseline:doc ~current:doc)));
      let failed =
        Eval.Regression.failures
          (Eval.Regression.compare_docs table ~baseline:doc ~current:(set path v doc))
        |> List.map (fun (c : Eval.Regression.comparison) -> c.name)
      in
      Alcotest.(check bool) (file ^ " fails " ^ expected) true (List.mem expected failed))
    Simkit.Json.
      [
        ("BENCH_registry.json", [ "backends"; "answers_identical" ], Bool false,
         "registry/dht/answers_identical");
        ("BENCH_obs.json", [ "fleet"; "within_bound" ], Bool false, "obs/fleet/within_bound");
        ("BENCH_resilience.json", [ "runs"; "consistent" ], Bool false,
         "resilience/crash-primary/r3/consistent");
        ("BENCH_load.json", [ "runs"; "completion_rate" ], Number 0.0,
         "load/flash/slo/completion_rate");
        (* Invariants judge the current document alone: neither field is
           read by a gated row. *)
        ("BENCH_wire.json", [ "wire"; "top_talkers" ], List [], "wire/invariant/talkers_tallied");
        ("BENCH_health.json", [ "health"; "lag_count" ], Number 0.0,
         "health/invariant/lag_per_episode");
      ]

let suite =
  ( "gate-table",
    [
      Alcotest.test_case "matches the committed golden table" `Quick test_matches_golden;
      Alcotest.test_case "invariants hold on the baselines" `Quick test_invariants_hold_on_baselines;
      Alcotest.test_case "a mutated document fails each table" `Quick test_mutated_documents_fail;
    ] )
