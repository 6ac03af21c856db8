(* Timeseries: fixed-width windowed aggregation on an explicit clock. *)

open Simkit

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_validation () =
  (match Timeseries.create ~window_ms:0.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero width accepted");
  match Timeseries.create ~capacity:0 ~window_ms:10.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted"

let test_basic_aggregation () =
  let t = Timeseries.create ~window_ms:100.0 () in
  Timeseries.observe t "lat" ~now:10.0 4.0;
  Timeseries.observe t "lat" ~now:60.0 8.0;
  Timeseries.observe t "lat" ~now:250.0 20.0;
  match Timeseries.windows t "lat" with
  | [ Some w0; None; Some w2 ] ->
      Alcotest.(check int) "w0 index" 0 w0.Timeseries.index;
      Alcotest.(check int) "w0 count" 2 w0.Timeseries.count;
      Alcotest.(check (float 1e-9)) "w0 mean" 6.0 w0.Timeseries.mean;
      Alcotest.(check (float 1e-9)) "w0 rate (2 per 100ms)" 20.0 w0.Timeseries.rate_per_s;
      Alcotest.(check (float 1e-9)) "w0 from_ms" 0.0 w0.Timeseries.from_ms;
      Alcotest.(check int) "w2 index" 2 w2.Timeseries.index;
      Alcotest.(check (float 1e-9)) "w2 p50" 20.0 w2.Timeseries.p50;
      Alcotest.(check (float 1e-9)) "w2 from_ms" 200.0 w2.Timeseries.from_ms
  | ws -> Alcotest.fail (Printf.sprintf "expected [Some; None; Some], got %d windows" (List.length ws))

let test_exact_boundary_rolls_over () =
  (* Windows are half-open: a sample at exactly k * window_ms belongs to
     window k, not k-1. *)
  let t = Timeseries.create ~window_ms:100.0 () in
  Timeseries.observe t "x" ~now:99.999 1.0;
  Timeseries.observe t "x" ~now:100.0 2.0;
  (match Timeseries.windows t "x" with
  | [ Some w0; Some w1 ] ->
      Alcotest.(check int) "window 0 count" 1 w0.Timeseries.count;
      Alcotest.(check int) "window 1 count" 1 w1.Timeseries.count;
      Alcotest.(check (float 1e-9)) "boundary sample in window 1" 2.0 w1.Timeseries.mean
  | _ -> Alcotest.fail "expected exactly two windows");
  Alcotest.(check (option int)) "latest" (Some 1) (Timeseries.latest_index t "x")

let test_negative_now_clamps () =
  let t = Timeseries.create ~window_ms:50.0 () in
  Timeseries.observe t "x" ~now:(-3.0) 7.0;
  match Timeseries.windows t "x" with
  | [ Some w ] -> Alcotest.(check int) "window 0" 0 w.Timeseries.index
  | _ -> Alcotest.fail "expected one window"

let test_ring_eviction () =
  let t = Timeseries.create ~capacity:4 ~window_ms:10.0 () in
  for i = 0 to 9 do
    Timeseries.observe t "x" ~now:(float_of_int (i * 10)) (float_of_int i)
  done;
  let ws = Timeseries.windows t "x" in
  Alcotest.(check int) "capacity bounds the ring" 4 (List.length ws);
  (match ws with
  | Some first :: _ ->
      Alcotest.(check int) "oldest retained window" 6 first.Timeseries.index
  | _ -> Alcotest.fail "oldest window missing");
  match List.rev ws with
  | Some last :: _ -> Alcotest.(check (float 1e-9)) "newest value" 9.0 last.Timeseries.mean
  | _ -> Alcotest.fail "newest window missing"

let test_empty_windows_serialize_null () =
  let t = Timeseries.create ~window_ms:100.0 () in
  Timeseries.observe t "lat" ~now:0.0 1.0;
  Timeseries.observe t "lat" ~now:350.0 2.0;
  let doc = Json.to_string (Timeseries.to_json t) in
  Alcotest.(check bool) "series present" true (contains "\"lat\"" doc);
  Alcotest.(check bool) "gap windows are null" true (contains "null, null" doc);
  Alcotest.(check bool) "window fields" true (contains "\"count\"" doc);
  Alcotest.(check bool) "no nan leaks" false (contains "nan" doc)

let test_reset_keeps_handles_live () =
  let t = Timeseries.create ~window_ms:10.0 () in
  let s = Timeseries.series t "x" in
  Timeseries.observe_series t s ~now:5.0 1.0;
  Alcotest.(check int) "one window before reset" 1 (List.length (Timeseries.windows t "x"));
  Timeseries.reset t;
  Alcotest.(check int) "emptied in place" 0 (List.length (Timeseries.windows t "x"));
  Alcotest.(check (option int)) "latest cleared" None (Timeseries.latest_index t "x");
  (* The cached handle must still feed the same named series.  Window 2 is
     the newest; windows 0 and 1 are in range but empty. *)
  Timeseries.observe_series t s ~now:25.0 9.0;
  match Timeseries.windows t "x" with
  | [ None; None; Some w ] ->
      Alcotest.(check int) "handle still wired to \"x\"" 2 w.Timeseries.index;
      Alcotest.(check (float 1e-9)) "fresh sample visible" 9.0 w.Timeseries.mean
  | _ -> Alcotest.fail "cached handle lost after reset"

let test_names_sorted () =
  let t = Timeseries.create ~window_ms:10.0 () in
  Timeseries.observe t "zeta" ~now:0.0 1.0;
  Timeseries.observe t "alpha" ~now:0.0 1.0;
  Alcotest.(check (list string)) "alphabetical" [ "alpha"; "zeta" ] (Timeseries.names t)

let suite =
  ( "timeseries",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "basic aggregation" `Quick test_basic_aggregation;
      Alcotest.test_case "exact boundary rolls over" `Quick test_exact_boundary_rolls_over;
      Alcotest.test_case "negative now clamps" `Quick test_negative_now_clamps;
      Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
      Alcotest.test_case "empty windows serialize null" `Quick test_empty_windows_serialize_null;
      Alcotest.test_case "reset keeps handles live" `Quick test_reset_keeps_handles_live;
      Alcotest.test_case "names sorted" `Quick test_names_sorted;
    ] )
