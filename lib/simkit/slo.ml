(* Declarative service-level objectives over Timeseries windows.

   An objective names a series and a bound; evaluation is burn-rate style:
   over the last [lookback] retained windows, count the windows that
   violate the bound and breach when the violating fraction reaches
   [burn_threshold].  One slow window in an hour is noise; half the recent
   windows out of bound is an incident — exactly the distinction burn
   rates exist to make.  Ratio objectives aggregate counts over the whole
   lookback instead (a per-window completion ratio is meaningless when the
   start and the completion land in different windows). *)

type objective =
  | Quantile_max of { series : string; q : float; limit : float }
  | Mean_max of { series : string; limit : float }
  | Mean_min of { series : string; floor : float }
  | Ratio_min of { num : string; den : string; floor : float }

type spec = {
  name : string;
  objective : objective;
  lookback : int;  (* windows considered; 0 = all retained *)
  burn_threshold : float;  (* violating fraction that constitutes a breach *)
}

let spec ?name ?(lookback = 0) ?(burn_threshold = 0.5) objective =
  if lookback < 0 then invalid_arg "Slo.spec: negative lookback";
  if burn_threshold <= 0.0 || burn_threshold > 1.0 then
    invalid_arg "Slo.spec: burn_threshold outside (0, 1]";
  let default_name =
    match objective with
    | Quantile_max { series; q; limit } ->
        Printf.sprintf "%s_p%d<=%g" series (int_of_float ((q *. 100.0) +. 0.5)) limit
    | Mean_max { series; limit } -> Printf.sprintf "%s<=%g" series limit
    | Mean_min { series; floor } -> Printf.sprintf "%s>=%g" series floor
    | Ratio_min { num; den; floor } -> Printf.sprintf "%s/%s>=%g" num den floor
  in
  { name = Option.value name ~default:default_name; objective; lookback; burn_threshold }

type status = {
  spec : spec;
  evaluated : int;  (* windows with data in the lookback *)
  violating : int;
  burn_rate : float;
  worst : float;  (* most out-of-bound observed value; nan when none *)
  breached : bool;
}

let last n xs =
  if n <= 0 then xs
  else begin
    let len = List.length xs in
    if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs
  end

let value_of_window objective (w : Timeseries.summary) =
  match objective with
  | Quantile_max { q; _ } ->
      if q = 0.5 then w.p50
      else if q = 0.9 then w.p90
      else if q = 0.99 then w.p99
      else invalid_arg "Slo: only quantiles 0.5, 0.9 and 0.99 are tracked"
  | Mean_max _ | Mean_min _ -> w.mean
  | Ratio_min _ -> nan

let violates objective v =
  match objective with
  | Quantile_max { limit; _ } | Mean_max { limit; _ } -> v > limit
  | Mean_min { floor; _ } -> v < floor
  | Ratio_min _ -> false

(* Comparable badness, so [worst] is the most out-of-bound value whatever
   the bound's direction. *)
let badness objective v =
  match objective with
  | Quantile_max _ | Mean_max _ -> v
  | Mean_min _ | Ratio_min _ -> -.v

let evaluate ts spec =
  match spec.objective with
  | Ratio_min { num; den; floor } ->
      let count series =
        last spec.lookback (Timeseries.windows ts series)
        |> List.fold_left
             (fun acc -> function Some (w : Timeseries.summary) -> acc + w.count | None -> acc)
             0
      in
      let n = count num and d = count den in
      if d = 0 then
        { spec; evaluated = 0; violating = 0; burn_rate = 0.0; worst = nan; breached = false }
      else begin
        let ratio = float_of_int n /. float_of_int d in
        let breached = ratio < floor in
        {
          spec;
          evaluated = 1;
          violating = (if breached then 1 else 0);
          burn_rate = (if breached then 1.0 else 0.0);
          worst = ratio;
          breached;
        }
      end
  | objective ->
      let series =
        match objective with
        | Quantile_max { series; _ } | Mean_max { series; _ } | Mean_min { series; _ } -> series
        | Ratio_min _ -> assert false
      in
      let windows = last spec.lookback (Timeseries.windows ts series) in
      let evaluated = ref 0 and violating = ref 0 and worst = ref nan in
      List.iter
        (function
          | None -> ()
          | Some (w : Timeseries.summary) ->
              incr evaluated;
              let v = value_of_window objective w in
              if violates objective v then incr violating;
              if Float.is_nan !worst || badness objective v > badness objective !worst then
                worst := v)
        windows;
      let burn_rate =
        if !evaluated = 0 then 0.0 else float_of_int !violating /. float_of_int !evaluated
      in
      {
        spec;
        evaluated = !evaluated;
        violating = !violating;
        burn_rate;
        worst = !worst;
        breached = !evaluated > 0 && burn_rate >= spec.burn_threshold;
      }

let check ts specs = List.map (evaluate ts) specs

(* --- Stateful monitor (breach-edge events) ----------------------------- *)

type monitor = { specs : spec list; mutable breached : (string, unit) Hashtbl.t }

let monitor specs = { specs; breached = Hashtbl.create 8 }

let poll ?(on_breach = fun _ -> ()) ?(on_clear = fun _ -> ()) m ts =
  List.map
    (fun spec ->
      let st = evaluate ts spec in
      let was = Hashtbl.mem m.breached spec.name in
      if st.breached && not was then begin
        Hashtbl.replace m.breached spec.name ();
        on_breach st
      end
      else if (not st.breached) && was then begin
        Hashtbl.remove m.breached spec.name;
        on_clear st
      end;
      st)
    m.specs

let breached_names m =
  Hashtbl.fold (fun name () acc -> name :: acc) m.breached [] |> List.sort compare

(* --- Parsing (the --slo mini-language) --------------------------------- *)

let parse_float s =
  match float_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "not a number: %S" s)

(* Accepted forms:
   - "join_p99_ms=500"            p99 of series join_ms must stay <= 500
     (likewise _p50_ / _p90_; the quantile tag is cut out of the name)
   - "audit_recall_at_k>=0.9"     window means must stay >= 0.9
   - "rpc_latency_ms<=40"         window means must stay <= 40
   - "join_completed/join_started>=0.99"  aggregate count ratio floor *)
let of_string input =
  let input = String.trim input in
  let split sep =
    match String.index_opt input sep.[0] with
    | Some i
      when i + String.length sep <= String.length input
           && String.sub input i (String.length sep) = sep ->
        Some (String.sub input 0 i, String.sub input (i + String.length sep) (String.length input - i - String.length sep))
    | _ -> None
  in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
    go 0
  in
  let ( let* ) = Result.bind in
  match split ">=" with
  | Some (lhs, rhs) -> (
      let* v = parse_float rhs in
      match String.index_opt lhs '/' with
      | Some i ->
          let num = String.trim (String.sub lhs 0 i) in
          let den = String.trim (String.sub lhs (i + 1) (String.length lhs - i - 1)) in
          if num = "" || den = "" then Error (Printf.sprintf "empty series in %S" input)
          else Ok (spec ~name:input (Ratio_min { num; den; floor = v }))
      | None ->
          let series = String.trim lhs in
          if series = "" then Error (Printf.sprintf "empty series in %S" input)
          else Ok (spec ~name:input (Mean_min { series; floor = v })))
  | None -> (
      match split "<=" with
      | Some (lhs, rhs) ->
          let* v = parse_float rhs in
          let series = String.trim lhs in
          if series = "" then Error (Printf.sprintf "empty series in %S" input)
          else Ok (spec ~name:input (Mean_max { series; limit = v }))
      | None -> (
          match split "=" with
          | Some (lhs, rhs) -> (
              let* v = parse_float rhs in
              let lhs = String.trim lhs in
              let quantile_form tag q =
                find_sub lhs tag
                |> Option.map (fun i ->
                       let series =
                         String.sub lhs 0 i
                         ^ String.sub lhs
                             (i + String.length tag)
                             (String.length lhs - i - String.length tag)
                       in
                       (* "_pNN_" collapses to "_": join_p99_ms -> join_ms;
                          a trailing "_pNN" is cut entirely. *)
                       let series =
                         if String.length series > 0 && series.[String.length series - 1] = '_'
                         then String.sub series 0 (String.length series - 1)
                         else series
                       in
                       (series, q))
              in
              let tagged =
                match quantile_form "_p99" 0.99 with
                | Some r -> Some r
                | None -> (
                    match quantile_form "_p90" 0.9 with
                    | Some r -> Some r
                    | None -> quantile_form "_p50" 0.5)
              in
              match tagged with
              | Some (series, q) when series <> "" ->
                  Ok (spec ~name:input (Quantile_max { series; q; limit = v }))
              | _ ->
                  Error
                    (Printf.sprintf
                       "%S: \"=\" needs a _p50/_p90/_p99 quantile tag (use <= or >= for means)"
                       input))
          | None ->
              Error
                (Printf.sprintf "%S: expected SERIES_pNN=LIMIT, SERIES<=LIMIT, SERIES>=FLOOR or NUM/DEN>=FLOOR"
                   input)))

let of_string_exn input =
  match of_string input with Ok s -> s | Error e -> invalid_arg ("Slo.of_string: " ^ e)

(* --- Rendering --------------------------------------------------------- *)

let describe_objective = function
  | Quantile_max { series; q; limit } ->
      Printf.sprintf "p%d(%s) <= %g" (int_of_float ((q *. 100.0) +. 0.5)) series limit
  | Mean_max { series; limit } -> Printf.sprintf "mean(%s) <= %g" series limit
  | Mean_min { series; floor } -> Printf.sprintf "mean(%s) >= %g" series floor
  | Ratio_min { num; den; floor } -> Printf.sprintf "count(%s)/count(%s) >= %g" num den floor

let status_line st =
  Printf.sprintf "%s: %s — %d/%d windows out of bound (burn %.2f, worst %s)%s" st.spec.name
    (describe_objective st.spec.objective)
    st.violating st.evaluated st.burn_rate
    (if Float.is_nan st.worst then "-" else Printf.sprintf "%g" st.worst)
    (if st.breached then " BREACHED" else "")

let status_json st =
  Json.Obj
    [
      ("name", Json.String st.spec.name);
      ("objective", Json.String (describe_objective st.spec.objective));
      ("evaluated", Json.Int st.evaluated);
      ("violating", Json.Int st.violating);
      ("burn_rate", Json.Number st.burn_rate);
      ("worst", Json.Number st.worst);
      ("breached", Json.Bool st.breached);
    ]
