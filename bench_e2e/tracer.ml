(* Bench-side span recorder for the traced run.

   The benchmark wraps its own calls into each layer's public functions in
   [span]; nothing inside the libraries is instrumented.  Each span keeps
   its kind, start, end, parent and the minor words allocated while it was
   open, in flat arrays, and is summarised (or written out) when the run
   ends.  Self time is a span's duration minus the durations of its direct
   children.  With recording off, [span] is a direct call. *)

type kind =
  | Admission_submit
  | Protocol_join
  | Protocol_join_many
  | Rpc_call
  | Rpc_handle
  | Server_neighbors
  | Server_restore
  | Cluster_sync
  | Cluster_digest_check
  | Registry_insert
  | Registry_query

let kinds =
  [|
    Admission_submit;
    Protocol_join;
    Protocol_join_many;
    Rpc_call;
    Rpc_handle;
    Server_neighbors;
    Server_restore;
    Cluster_sync;
    Cluster_digest_check;
    Registry_insert;
    Registry_query;
  |]

let kind_index = function
  | Admission_submit -> 0
  | Protocol_join -> 1
  | Protocol_join_many -> 2
  | Rpc_call -> 3
  | Rpc_handle -> 4
  | Server_neighbors -> 5
  | Server_restore -> 6
  | Cluster_sync -> 7
  | Cluster_digest_check -> 8
  | Registry_insert -> 9
  | Registry_query -> 10

let kind_name = function
  | Admission_submit -> "admission.submit"
  | Protocol_join -> "protocol.join"
  | Protocol_join_many -> "protocol.join_many"
  | Rpc_call -> "rpc.call"
  | Rpc_handle -> "rpc.handle"
  | Server_neighbors -> "server.neighbors"
  | Server_restore -> "server.restore"
  | Cluster_sync -> "cluster.sync"
  | Cluster_digest_check -> "cluster.digest_check"
  | Registry_insert -> "registry.insert"
  | Registry_query -> "registry.query"

let n_kinds = Array.length kinds

type buffer = {
  mutable len : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable words : float array;
  mutable items : int array;  (* entries a batch call carried, 1 otherwise *)
}

let make_buffer capacity =
  {
    len = 0;
    kind = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity 0;
    words = Array.make capacity 0.0;
    items = Array.make capacity 0;
  }

let buf = ref (make_buffer 0)
let recording = ref false
let current = ref (-1)

let start () =
  buf := make_buffer 65_536;
  current := -1;
  recording := true

let stop () = recording := false

let grow b =
  let cap = 2 * Array.length b.kind in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  b.kind <- extend b.kind 0;
  b.start <- extend b.start 0;
  b.stop <- extend b.stop 0;
  b.parent <- extend b.parent 0;
  b.words <- extend b.words 0.0;
  b.items <- extend b.items 0

let span ?(items = 1) kind f =
  if not !recording then f ()
  else begin
    let b = !buf in
    if b.len = Array.length b.kind then grow b;
    let i = b.len in
    b.len <- i + 1;
    b.kind.(i) <- kind_index kind;
    b.parent.(i) <- !current;
    b.items.(i) <- items;
    let parent = !current in
    current := i;
    let finish () =
      b.stop.(i) <- Clock.now_ns ();
      b.words.(i) <- Gc.minor_words () -. b.words.(i);
      current := parent
    in
    b.words.(i) <- Gc.minor_words ();
    b.start.(i) <- Clock.now_ns ();
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Per-kind totals over the recorded spans. *)
type totals = {
  count : int array;
  items : int array;
  total_ns : int array;
  self_ns : int array;
  words : float array;
  (* Registry inserts split by whether a sync round caused them. *)
  mutable sync_insert_ns : int;
  mutable top_level_ns : int;
}

let summarise () =
  let b = !buf in
  let t =
    {
      count = Array.make n_kinds 0;
      items = Array.make n_kinds 0;
      total_ns = Array.make n_kinds 0;
      self_ns = Array.make n_kinds 0;
      words = Array.make n_kinds 0.0;
      sync_insert_ns = 0;
      top_level_ns = 0;
    }
  in
  let child_ns = Array.make b.len 0 in
  let under_sync = Array.make b.len false in
  let sync = kind_index Cluster_sync and insert = kind_index Registry_insert in
  (* Parents are allocated before their children, so one backward pass
     settles every child sum and one forward pass every ancestry flag. *)
  for i = b.len - 1 downto 0 do
    let p = b.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + (b.stop.(i) - b.start.(i))
  done;
  for i = 0 to b.len - 1 do
    let k = b.kind.(i) and p = b.parent.(i) in
    let dur = b.stop.(i) - b.start.(i) in
    under_sync.(i) <- k = sync || (p >= 0 && under_sync.(p));
    t.count.(k) <- t.count.(k) + 1;
    t.items.(k) <- t.items.(k) + b.items.(i);
    t.total_ns.(k) <- t.total_ns.(k) + dur;
    t.self_ns.(k) <- t.self_ns.(k) + (dur - child_ns.(i));
    t.words.(k) <- t.words.(k) +. b.words.(i);
    if p < 0 then t.top_level_ns <- t.top_level_ns + dur;
    if k = insert && under_sync.(i) then t.sync_insert_ns <- t.sync_insert_ns + dur
  done;
  t

(* One JSON object per line: name, start and end in ns, parent index (-1
   for a root), minor words, batch entries. *)
let write_jsonl path =
  let b = !buf in
  let oc = open_out path in
  for i = 0 to b.len - 1 do
    Printf.fprintf oc
      "{\"id\": %d, \"name\": \"%s\", \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \"minor_words\": %.0f, \"items\": %d}\n"
      i
      (kind_name kinds.(b.kind.(i)))
      b.start.(i) b.stop.(i) b.parent.(i) b.words.(i) b.items.(i)
  done;
  close_out oc
