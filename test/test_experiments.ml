(* The experiment table behind nearby_sim's subcommands and bench's
   sections: its names, and the seed reaching the entries. *)

(* The names the two front ends give their own commands and sections. *)
let other_subcommands = [ "registry"; "resilience"; "load"; "top"; "trace"; "verify"; "all" ]
let bench_only_sections =
  [ "micro"; "registry"; "obs"; "resilience"; "load"; "wire"; "health"; "regress" ]
let names = List.map (fun (e : Eval.Experiments.t) -> e.name) Eval.Experiments.all

let test_names () =
  Alcotest.(check int) "16 experiments" 16 (List.length names);
  Alcotest.(check int) "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is not another subcommand") false
        (List.mem name other_subcommands);
      Alcotest.(check bool) (name ^ " is not a bench-only section") false
        (List.mem name bench_only_sections))
    names

(* Everything [f] writes to stdout, at the file-descriptor level. *)
let capture_stdout f =
  let path = Filename.temp_file "experiments" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  out

let test_seed_reaches_entry () =
  let e =
    List.find (fun (e : Eval.Experiments.t) -> e.name = "maintenance") Eval.Experiments.all
  in
  let at seed =
    capture_stdout (fun () -> e.run ~quick:true ~seed:(Some seed) Eval.Experiments.no_size)
  in
  let one = at 1 in
  Alcotest.(check bool) "tables printed" true (String.length one > 0);
  Alcotest.(check string) "same seed, same tables" one (at 1);
  Alcotest.(check bool) "seed 2 prints other tables" true (one <> at 2)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "table names" `Quick test_names;
      Alcotest.test_case "seed reaches an entry" `Quick test_seed_reaches_entry;
    ] )
