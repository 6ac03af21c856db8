(* The bench regression gate: judge a freshly generated BENCH_*.json
   document against its committed baseline with a declared gate table.

   A table expands against a document into rows.  A gated row reads one
   number from both documents and fails beyond its tolerance in the bad
   direction; an invariant row is checked on the current document only.
   Rows are expanded from the baseline, so a metric present in the
   baseline but missing from the current document fails: silently
   dropping a measurement is how regressions hide.  New metrics in the
   current document pass (they gate once the baseline is updated). *)

type direction = Higher_better | Lower_better | Exact | Invariant

type row = {
  name : string;
  value : Simkit.Json.t -> float;  (* raises [Failure] when the document lacks it *)
  direction : direction;
  tolerance : float;  (* allowed fractional drift in the bad direction *)
}

type table = Simkit.Json.t -> row list

type comparison = {
  name : string;
  baseline : float option;  (* None: an invariant row *)
  current : float option;  (* None: metric disappeared *)
  ok : bool;
}

(* --- Declaring tables --------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

let at keys doc =
  match Simkit.Json.path keys doc with
  | Some v -> v
  | None -> fail "missing %s" (String.concat "." keys)

let num keys doc =
  match Simkit.Json.as_float (at keys doc) with
  | Some v -> v
  | None -> fail "not a number: %s" (String.concat "." keys)

let bit b = if b then 1.0 else 0.0

let flag keys doc =
  match at keys doc with Bool b -> bit b | _ -> fail "not a bool: %s" (String.concat "." keys)

let row ?(tolerance = 0.0) direction name value = { name; value; direction; tolerance }
let rows rs : table = fun _ -> rs
let concat tables : table = fun doc -> List.concat_map (fun t -> t doc) tables

let elements array doc =
  match Simkit.Json.path array doc with Some (List vs) -> vs | _ -> []

(* The values of [names] in [el], "/"-joined: an element's identity. *)
let fields names el =
  String.concat "/"
    (List.map
       (fun k ->
         match at [ k ] el with
         | String s -> s
         | Number v when Float.is_integer v -> string_of_int (int_of_float v)
         | v -> Simkit.Json.to_string v)
       names)

let element array ~key id doc =
  match List.find_opt (fun el -> key el = id) (elements array doc) with
  | Some el -> el
  | None -> fail "no %s element %s" (String.concat "." array) id

(* One group of rows per element of [array] (those satisfying [where]).
   [build el this] sees the element of the document being expanded and
   [this], which finds the element with the same [key] in whichever
   document a row is read from.  An absent array expands to no rows. *)
let each ?(where = fun _ -> true) array ~key build : table =
 fun doc ->
  elements array doc
  |> List.filter where
  |> List.concat_map (fun el -> build el (element array ~key (key el)))

(* --- Judging ------------------------------------------------------------ *)

let within (r : row) ~baseline current =
  match r.direction with
  | Exact -> current = baseline
  | Higher_better -> current >= baseline *. (1.0 -. r.tolerance)
  | Lower_better -> current <= baseline *. (1.0 +. r.tolerance)
  | Invariant -> current = 1.0

(* [baseline] is [None] for an invariant row: it has no baseline side. *)
let judge (r : row) ?baseline current =
  let current = try Some (r.value current) with Failure _ -> None in
  let ok = Option.fold current ~none:false ~some:(within r ~baseline:(Option.value baseline ~default:1.0)) in
  { name = r.name; baseline; current; ok }

let split table doc = List.partition (fun (r : row) -> r.direction <> Invariant) (table doc)
let gated table doc = fst (split table doc)
let check_invariants table current = List.map (fun r -> judge r current) (snd (split table current))

let compare_docs table ~baseline ~current =
  List.map (fun (r : row) -> judge r ~baseline:(r.value baseline) current) (gated table baseline)
  @ check_invariants table current

let failures comparisons = List.filter (fun c -> not c.ok) comparisons

let print comparisons =
  let cell = function Some v -> Prelude.Table.float_cell ~decimals:4 v | None -> "-" in
  Prelude.Table.print
    ~header:[ "metric"; "baseline"; "current"; "status" ]
    (List.map
       (fun c ->
         [
           c.name;
           cell c.baseline;
           (if c.current = None then "MISSING" else cell c.current);
           (if c.ok then "ok" else "FAIL");
         ])
       comparisons)
