(* Flight recorder: the bounded ring of recent notable events and its
   JSONL dump, including the end-to-end path — an injected fault breaches
   a join-latency SLO and the dump holds the surrounding RPC and fault
   events. *)

open Simkit

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_validation () =
  match Flight_recorder.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted"

let test_ring_overwrites_oldest () =
  let r = Flight_recorder.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Flight_recorder.count r);
  for i = 1 to 5 do
    Flight_recorder.record r ~ts:(float_of_int i) ~kind:"rpc" (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "capacity" 3 (Flight_recorder.capacity r);
  Alcotest.(check int) "retained" 3 (Flight_recorder.count r);
  Alcotest.(check int) "total ever" 5 (Flight_recorder.total_recorded r);
  Alcotest.(check (list string)) "oldest first, oldest two gone" [ "e3"; "e4"; "e5" ]
    (List.map (fun (e : Flight_recorder.event) -> e.detail) (Flight_recorder.events r));
  Flight_recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Flight_recorder.count r);
  Flight_recorder.record r ~ts:9.0 ~kind:"slo" "after clear";
  Alcotest.(check int) "usable after clear" 1 (Flight_recorder.count r)

let test_event_json () =
  let e =
    {
      Flight_recorder.ts = 12.5;
      kind = "rpc";
      detail = "time\"out";
      args = [ ("dst", Span.Int 3); ("latency_ms", Span.Float 1.5); ("fatal", Span.Bool false) ];
    }
  in
  let json = Json.to_string (Flight_recorder.event_json e) in
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains needle json))
    [ "\"ts\": 12.5"; "\"kind\": \"rpc\""; "time\\\"out"; "\"dst\": 3"; "\"fatal\": false" ]

let test_jsonl_shape () =
  let r = Flight_recorder.create ~capacity:8 () in
  Flight_recorder.record r ~ts:1.0 ~kind:"fault" "crash";
  Flight_recorder.record r ~ts:2.0 ~kind:"cluster" "recover";
  let lines = String.split_on_char '\n' (String.trim (Flight_recorder.to_jsonl r)) in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.fail ("unparseable JSONL line: " ^ e))
    lines

(* The acceptance path: crash the primary under a join-latency SLO that
   cannot hold, and the run must both report the breach and leave a flight
   dump with the RPC traffic and the injected fault around it. *)
let test_slo_breach_dumps_context () =
  let config =
    {
      Eval.Resilience_exp.quick_config with
      scenario = "crash-primary";
      slos = [ Slo.of_string_exn "join_p99_ms=1" ];
      audit_rate = 0.5;
    }
  in
  let result, artifacts = Eval.Resilience_exp.run_instrumented config in
  Alcotest.(check (list string)) "breach reported in the result" [ "join_p99_ms=1" ]
    result.Eval.Resilience_exp.slo_breaches;
  Alcotest.(check bool) "breach visible in final statuses" true
    (List.exists (fun st -> st.Slo.breached) artifacts.Eval.Resilience_exp.slo_statuses);
  let events = Flight_recorder.events artifacts.Eval.Resilience_exp.recorder in
  let kinds = List.map (fun (e : Flight_recorder.event) -> e.kind) events in
  let has kind = List.mem kind kinds in
  Alcotest.(check bool) "rpc context retained" true (has "rpc");
  Alcotest.(check bool) "slo transition recorded" true (has "slo");
  Alcotest.(check bool) "cluster events recorded" true (has "cluster");
  Alcotest.(check bool) "injected fault recorded" true (has "fault");
  (* Timestamps are the engine clock, oldest first. *)
  let rec sorted = function
    | (a : Flight_recorder.event) :: (b :: _ as rest) -> a.ts <= b.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological dump" true (sorted events);
  (* The audit fed the same run: live quality streams exist. *)
  match artifacts.Eval.Resilience_exp.audit_trace with
  | None -> Alcotest.fail "audit_rate > 0 must attach an auditor"
  | Some t ->
      Alcotest.(check bool) "live samples collected" true
        (Simkit.Trace.counter t "audit_samples" > 0)

let test_no_slo_no_breach () =
  let config = { Eval.Resilience_exp.quick_config with scenario = "none" } in
  let result, artifacts = Eval.Resilience_exp.run_instrumented config in
  Alcotest.(check (list string)) "nothing breached" [] result.Eval.Resilience_exp.slo_breaches;
  Alcotest.(check bool) "recorder still collected context" true
    (Flight_recorder.count artifacts.Eval.Resilience_exp.recorder > 0)

let suite =
  ( "flight-recorder",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "ring overwrites oldest" `Quick test_ring_overwrites_oldest;
      Alcotest.test_case "event json" `Quick test_event_json;
      Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
      Alcotest.test_case "SLO breach dumps context" `Quick test_slo_breach_dumps_context;
      Alcotest.test_case "clean run stays quiet" `Quick test_no_slo_no_breach;
    ] )
