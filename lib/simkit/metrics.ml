(* The one metric store.  Series live in families, one per base name,
   holding every label set registered under the name (so the cardinality
   cap is the family's length).  A series is registered once — labels
   sorted, canonical key built — and carries its own counter cell, stream
   and gauge.  Hot paths hold a cell or stream and never come back here;
   keyed writes find the family by name and the series by its sorted
   labels, with no key building. *)

type labels = (string * string) list
type exemplar = { bucket : int; trace_id : int; value : float }

(* Exemplars keep the last tagged sample per log2 bucket in two arrays
   indexed by bucket (trace id 0 marks an empty slot), allocated on the
   first tagged sample; the float array stores unboxed. *)
type stream = {
  st : Prelude.Stats.t;
  hist : Prelude.Histogram.t;  (* log2-bucketed: bucket b covers (2^(b-1), 2^b] *)
  sketch : Prelude.Sketch.t;  (* every quantile read, live or merged *)
  mutable ex_trace : int array;
  mutable ex_value : float array;
}

type summary = {
  count : int;
  mean : float;
  stddev : float;
  ci95 : float;
  min : float option;
  max : float option;
  p50 : float;
  p90 : float;
  p99 : float;
}

type series = {
  s_name : string;
  s_labels : labels;  (* sorted *)
  s_key : string;
  mutable s_counter : int ref option;
  mutable s_stream : stream option;
  mutable s_gauge : float ref option;
}

type t = {
  families : (string, series list) Hashtbl.t;  (* base name -> its label sets *)
  max_series : int;
  mutable overflow_routed : int;
}

let overflow_labels = [ ("other", "true") ]

let create ?(max_series_per_name = 64) () =
  if max_series_per_name < 1 then invalid_arg "Metrics.create: max_series_per_name < 1";
  { families = Hashtbl.create 16; max_series = max_series_per_name; overflow_routed = 0 }

(* Strictly ascending keys: already canonical (the flat and one-label
   cases always are), so no sort and no allocation. *)
let rec canonical = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && canonical rest
  | _ -> true

let sort_labels labels =
  if canonical labels then labels
  else
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
    if canonical sorted then sorted else invalid_arg "Metrics: duplicate label key"

(* Values escape as JSON string literals, which is also the exposition
   grammar's quoting. *)
let render_key name = function
  | [] -> name
  | sorted ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string (Json.String v)) sorted)
      ^ "}"

let canonical_key name labels = render_key name (sort_labels labels)

(* Lookups raise rather than return an option, so a keyed write that
   hits an existing series allocates nothing. *)
let rec find_labels labels = function
  | [] -> raise_notrace Not_found
  | s :: rest -> if s.s_labels = labels then s else find_labels labels rest

let members t name = try Hashtbl.find t.families name with Not_found -> []

(* The registered series for (name, labels), without registering. *)
let find t name labels =
  match find_labels (sort_labels labels) (members t name) with
  | s -> Some s
  | exception Not_found -> None

let register t name labels members =
  let s =
    {
      s_name = name;
      s_labels = labels;
      s_key = render_key name labels;
      s_counter = None;
      s_stream = None;
      s_gauge = None;
    }
  in
  Hashtbl.replace t.families name (s :: members);
  s

(* The series for (name, labels), registering it on first sight and
   rerouting to the overflow series once the name is at its cap. *)
let resolve t name labels =
  let labels = sort_labels labels in
  let members = members t name in
  match find_labels labels members with
  | s -> s
  | exception Not_found ->
      if List.length members >= t.max_series && labels <> overflow_labels then begin
        t.overflow_routed <- t.overflow_routed + 1;
        try find_labels overflow_labels members
        with Not_found -> register t name overflow_labels members
      end
      else register t name labels members

(* A series' cell of one kind, created on first use. *)
let cell get set make s =
  match get s with
  | Some c -> c
  | None ->
      let c = make () in
      set s (Some c);
      c

let counter_cell = cell (fun s -> s.s_counter) (fun s c -> s.s_counter <- c) (fun () -> ref 0)
let gauge_cell = cell (fun s -> s.s_gauge) (fun s c -> s.s_gauge <- c) (fun () -> ref 0.0)

let stream_cell =
  cell (fun s -> s.s_stream) (fun s c -> s.s_stream <- c) (fun () ->
      {
        st = Prelude.Stats.create ();
        hist = Prelude.Histogram.create ();
        sketch = Prelude.Sketch.create ();
        ex_trace = [||];
        ex_value = [||];
      })

let counter_ref ?(labels = []) t name = counter_cell (resolve t name labels)
let incr ?labels t name = incr (counter_ref ?labels t name)

let add_count ?labels t name k =
  let r = counter_ref ?labels t name in
  r := !r + k

let of_counters bindings =
  let t = create () in
  List.iter (fun (name, v) -> add_count t name v) bindings;
  t

let gauge_ref ?(labels = []) t name = gauge_cell (resolve t name labels)
let set ?labels t name v = gauge_ref ?labels t name := v

(* --- streams ------------------------------------------------------------- *)

let stream ?(labels = []) t name = stream_cell (resolve t name labels)

let observe_stream s v =
  Prelude.Stats.add s.st v;
  Prelude.Histogram.add_log2 s.hist v;
  Prelude.Sketch.add s.sketch v

(* log2_bucket clamps at 2^62, so buckets 0..62 cover every sample. *)
let exemplar_slots = 63

let set_exemplar s bucket trace_id value =
  if Array.length s.ex_trace = 0 then begin
    s.ex_trace <- Array.make exemplar_slots 0;
    s.ex_value <- Array.make exemplar_slots 0.0
  end;
  s.ex_trace.(bucket) <- trace_id;
  s.ex_value.(bucket) <- value

let observe_traced s ~trace_id v =
  observe_stream s v;
  if trace_id <> 0 then set_exemplar s (Prelude.Histogram.log2_bucket v) trace_id v

let observe ?(trace_id = 0) ?labels t name v = observe_traced (stream ?labels t name) ~trace_id v

let stream_exemplars s =
  let acc = ref [] in
  for bucket = Array.length s.ex_trace - 1 downto 0 do
    let trace_id = s.ex_trace.(bucket) in
    if trace_id <> 0 then acc := { bucket; trace_id; value = s.ex_value.(bucket) } :: !acc
  done;
  !acc

let summary_of_stream s =
  {
    count = Prelude.Stats.count s.st;
    mean = Prelude.Stats.mean s.st;
    stddev = Prelude.Stats.stddev s.st;
    ci95 = Prelude.Stats.ci95_halfwidth s.st;
    min = Prelude.Stats.min_opt s.st;
    max = Prelude.Stats.max_opt s.st;
    p50 = Prelude.Sketch.quantile s.sketch 0.5;
    p90 = Prelude.Sketch.quantile s.sketch 0.9;
    p99 = Prelude.Sketch.quantile s.sketch 0.99;
  }

(* --- reading ------------------------------------------------------------- *)

let counter ?(labels = []) t name =
  match find t name labels with Some { s_counter = Some r; _ } -> !r | _ -> 0

let gauge ?(labels = []) t name =
  match find t name labels with Some { s_gauge = Some r; _ } -> Some !r | _ -> None

let read_stream f ?(labels = []) t name =
  match find t name labels with Some { s_stream = Some st; _ } -> Some (f st) | _ -> None

let stat ?labels t name = read_stream (fun s -> s.st) ?labels t name
let hist ?labels t name = read_stream (fun s -> s.hist) ?labels t name
let summary ?labels t name = read_stream summary_of_stream ?labels t name

let quantile ?labels t name q =
  read_stream (fun s -> Prelude.Sketch.quantile s.sketch q) ?labels t name

let exemplars ?labels t name =
  Option.value ~default:[] (read_stream stream_exemplars ?labels t name)

(* The sample from the highest populated bucket: "the trace to open" when a
   stream's tail looks wrong. *)
let top_exemplar ?labels t name =
  match List.rev (exemplars ?labels t name) with e :: _ -> Some e | [] -> None

let sum_counters ?(where = fun _ -> true) t name =
  List.fold_left
    (fun acc s ->
      match s.s_counter with Some r when where s.s_labels -> acc + !r | _ -> acc)
    0 (members t name)

let all_series t =
  Hashtbl.fold (fun _ members acc -> List.rev_append members acc) t.families []
  |> List.sort (fun a b -> String.compare a.s_key b.s_key)

let series t = List.map (fun s -> (s.s_name, s.s_labels, s.s_key)) (all_series t)

type reading = {
  name : string;
  labels : labels;
  key : string;
  counter : int option;
  stream : (summary * Prelude.Histogram.t * exemplar list) option;
  gauge : float option;
}

let readings t =
  List.map
    (fun s ->
      {
        name = s.s_name;
        labels = s.s_labels;
        key = s.s_key;
        counter = Option.map ( ! ) s.s_counter;
        stream =
          Option.map (fun st -> (summary_of_stream st, st.hist, stream_exemplars st)) s.s_stream;
        gauge = Option.map ( ! ) s.s_gauge;
      })
    (all_series t)

let counters t = List.filter_map (fun r -> Option.map (fun v -> (r.key, v)) r.counter) (readings t)
let series_count t name = List.length (members t name)
let overflow_routed t = t.overflow_routed

(* --- merging ------------------------------------------------------------- *)

(* Counters add; Welford accumulators, log2 histograms and sketches merge
   losslessly; exemplars take [src]'s latest per bucket (a merge is a
   scrape — the newest cross-link wins); gauges take [src]'s value. *)
let merge_into ?(labels = []) ~into src =
  let dst s = resolve into s.s_name (s.s_labels @ labels) in
  List.iter
    (fun s ->
      (match s.s_counter with
      | Some r when !r <> 0 ->
          let d = counter_cell (dst s) in
          d := !d + !r
      | _ -> ());
      (match s.s_stream with
      | Some st ->
          let d = stream_cell (dst s) in
          Prelude.Stats.merge_into ~into:d.st st.st;
          Prelude.Histogram.merge_into ~into:d.hist st.hist;
          Prelude.Sketch.merge_into ~into:d.sketch st.sketch;
          Array.iteri
            (fun bucket id -> if id <> 0 then set_exemplar d bucket id st.ex_value.(bucket))
            st.ex_trace
      | None -> ());
      match s.s_gauge with Some v -> gauge_cell (dst s) := !v | None -> ())
    (all_series src)

(* Zero in place: callers hold counter refs and stream handles across a
   reset; dropping the cells would leave those handles silently counting
   into orphaned storage. *)
let reset t =
  let clear st =
    Prelude.Stats.clear st.st;
    Prelude.Histogram.clear st.hist;
    Prelude.Sketch.clear st.sketch;
    st.ex_trace <- [||];
    st.ex_value <- [||]
  in
  Hashtbl.iter
    (fun _ ->
      List.iter (fun s ->
          Option.iter (fun r -> r := 0) s.s_counter;
          Option.iter clear s.s_stream))
    t.families
