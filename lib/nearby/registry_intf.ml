(* The one seam every registry backend plugs into.

   The paper's contribution is a server data structure for "store recorded
   paths, answer k-nearest"; the repo grew four divergent implementations
   of that contract (path tree, naive scan, super-peer region store, DHT
   directory) plus a sharded composite.  This module type is the shared
   surface: the server, the experiments, the CLI and the benchmarks all
   talk to a first-class [(module S)] instead of a concrete backend, so a
   new backend (batching, caching, async, ...) is one module away.

   Conventions every implementation must honour:
   - [insert] rejects empty paths, paths not ending at the landmark and
     duplicate peers with [Invalid_argument]; [remove]/[query_member]
     raise [Not_found] for unknown peers.
   - [query] returns at most [k] (peer, dtree) pairs in ascending
     (dtree, peer) order -- equal-cost ties break to the lower peer id --
     so two correct backends return byte-identical answers.
   - [snapshot]/[restore] round-trip the full registry state through the
     [Prelude.Codec] binary format; every corrupt input yields [Error]. *)

type peer = int

(* How many of the busiest routers [introspect] names.  A constant rather
   than a parameter so every backend's top-k is comparable. *)
let hot_router_k = 8

(* --- Content digests ----------------------------------------------------

   A registry's content digest is the XOR of one 64-bit hash per
   [(peer, routers)] entry.  XOR is commutative and self-inverse, so the
   digest is order-independent and every backend can maintain it
   incrementally: XOR the entry hash in on insert, XOR the same hash out
   on remove — O(1) either way, no rescans.  Two registries hold the same
   members with the same recorded paths iff (up to 64-bit collision) their
   digests match, which is what the cluster's divergence detector
   compares.

   The entry hash is FNV-1a over the peer id and the router sequence
   (costs are derived from position, so hashing the sequence covers them),
   finished with a splitmix64-style avalanche so single-bit input changes
   flip about half the output bits — without it, XOR-combining many
   near-identical FNV states would cancel structure. *)

let empty_digest = 0L

let entry_digest ~peer ~routers : int64 =
  let fnv_prime = 0x100000001b3L in
  let mix h v =
    Int64.mul (Int64.logxor h (Int64.of_int v)) fnv_prime
  in
  let h = ref (mix 0xcbf29ce484222325L peer) in
  Array.iter (fun r -> h := mix !h r) routers;
  h := mix !h (Array.length routers);
  (* splitmix64 finalizer *)
  let z = !h in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let combine_digests = Int64.logxor

(* A structural X-ray of a backend: how its storage is distributed over
   routers, which routers are hottest, and roughly how much memory it
   holds.  [occupancy] has one sample per (router, bucket) — the sample
   value is that bucket's size — so [Histogram.total occupancy] is the
   physical bucket count and the histogram's shape is the skew.
   [approx_bytes] is a words-times-8 estimate of the payload (paths,
   buckets, tables), not an exact heap measurement: good for comparing
   backends and spotting growth, not for accounting. *)
type introspection = {
  members : int;
  routers : int;  (* distinct storage buckets / routers known *)
  occupancy : Prelude.Histogram.t;
  hot_routers : (Topology.Graph.node * int) list;  (* top-k by bucket size, descending *)
  approx_bytes : int;
}

(* Build an introspection from one pass over (router, bucket-size) pairs:
   the shared tail of every backend's [introspect]. *)
let introspection_of_buckets ~members ~approx_bytes iter =
  let occupancy = Prelude.Histogram.create () in
  let routers = ref 0 in
  let hot = ref [] in
  iter (fun router size ->
      incr routers;
      Prelude.Histogram.add_log2 occupancy (float_of_int size);
      hot := (router, size) :: !hot);
  let hot_routers =
    List.sort (fun (r1, s1) (r2, s2) -> compare (s2, r1) (s1, r2)) !hot
    |> List.filteri (fun i _ -> i < hot_router_k)
  in
  { members; routers = !routers; occupancy; hot_routers; approx_bytes }

(* Combine per-shard / per-landmark introspections: occupancies merge
   bucket-wise, hot lists re-rank summed per-router sizes, counts add.
   Members add too — callers merging views of the *same* peers (rather
   than a partition) should correct that field themselves. *)
let merge_introspections = function
  | [] ->
      {
        members = 0;
        routers = 0;
        occupancy = Prelude.Histogram.create ();
        hot_routers = [];
        approx_bytes = 0;
      }
  | parts ->
      let occupancy = Prelude.Histogram.create () in
      let hot = Hashtbl.create 16 in
      List.iter
        (fun p ->
          Prelude.Histogram.merge_into ~into:occupancy p.occupancy;
          List.iter
            (fun (router, size) ->
              Hashtbl.replace hot router
                (size + Option.value ~default:0 (Hashtbl.find_opt hot router)))
            p.hot_routers)
        parts;
      let hot_routers =
        Hashtbl.fold (fun router size acc -> (router, size) :: acc) hot []
        |> List.sort (fun (r1, s1) (r2, s2) -> compare (s2, r1) (s1, r2))
        |> List.filteri (fun i _ -> i < hot_router_k)
      in
      {
        members = List.fold_left (fun acc p -> acc + p.members) 0 parts;
        routers = List.fold_left (fun acc p -> acc + p.routers) 0 parts;
        occupancy;
        hot_routers;
        approx_bytes = List.fold_left (fun acc p -> acc + p.approx_bytes) 0 parts;
      }

let introspection_json i =
  let open Simkit.Json in
  Obj
    [
      ("members", Int i.members);
      ("routers", Int i.routers);
      ("approx_bytes", Int i.approx_bytes);
      ( "occupancy_log2",
        List
          (List.map
             (fun (b, c) -> List [ Int b; Int c ])
             (Prelude.Histogram.to_assoc i.occupancy)) );
      ( "hot_routers",
        List
          (List.map
             (fun (router, size) -> Obj [ ("router", Int router); ("bucket_size", Int size) ])
             i.hot_routers) );
    ]

module type S = sig
  type t

  val backend_name : string
  val create : landmark:Topology.Graph.node -> t
  val landmark : t -> Topology.Graph.node
  val insert : t -> peer:peer -> routers:Topology.Graph.node array -> unit
  val remove : t -> peer -> unit
  val mem : t -> peer -> bool
  val member_count : t -> int
  val path_of : t -> peer -> Topology.Graph.node array option
  val iter_members : t -> (peer -> unit) -> unit
  val dtree : t -> peer -> peer -> int option

  val query :
    t ->
    routers:Topology.Graph.node array ->
    k:int ->
    ?exclude:(peer -> bool) ->
    unit ->
    (peer * int) list

  val query_member : t -> peer:peer -> k:int -> (peer * int) list

  val insert_many : t -> (peer * Topology.Graph.node array) array -> unit
  (** Register a batch, equivalent to [insert] in array order (and as
      atomic as the backend can make it: the path tree validates the whole
      batch before touching state).  Backends without a native batch path
      derive this from [insert] via {!Derive_batch}. *)

  val query_many :
    t ->
    queries:Topology.Graph.node array array ->
    k:int ->
    ?exclude:(int -> peer -> bool) ->
    unit ->
    (peer * int) list array
  (** One answer per query, each identical to the corresponding [query];
      [exclude] additionally receives the query index.  Batch-aware
      backends reuse their selector and dedup state across the batch. *)

  val query_into :
    t ->
    routers:Topology.Graph.node array ->
    best:(int * peer) Topk.t ->
    seen:(peer, unit) Hashtbl.t ->
    exclude:(peer -> bool) ->
    unit
  (** Offer this backend's candidates into a caller-owned bounded selector
      ([best] must order by lexicographic (dtree, peer)).  The sharded
      scatter uses this to carry one tightening bound across disjoint
      shards instead of merging k results per shard. *)

  val stats : t -> (string * int) list
  val introspect : t -> introspection

  val digest : t -> int64
  (** Order-independent 64-bit content digest over the registry's
      [(peer, routers)] entries: XOR of {!entry_digest} per member,
      {!empty_digest} when empty.  Maintained incrementally (O(1) per
      insert/remove), equal across backends holding the same members, and
      preserved by [snapshot]/[restore]. *)

  val snapshot : t -> string
  val restore : string -> (t, string) result
  val check_invariants : t -> unit
end

(* The singleton surface a backend must already have for its batch
   operations to be derived mechanically. *)
module type SINGLETON = sig
  type t

  val insert : t -> peer:peer -> routers:Topology.Graph.node array -> unit

  val query :
    t ->
    routers:Topology.Graph.node array ->
    k:int ->
    ?exclude:(peer -> bool) ->
    unit ->
    (peer * int) list
end

(* Default batch operations, derived from the singletons: semantically the
   reference implementation every native batch path must match (the qcheck
   agreement property pins this).  Backends [include] this and override
   what they can do better. *)
module Derive_batch (B : SINGLETON) = struct
  let insert_many t entries = Array.iter (fun (peer, routers) -> B.insert t ~peer ~routers) entries

  let query_many t ~queries ~k ?(exclude = fun _ _ -> false) () =
    Array.mapi (fun qi routers -> B.query t ~routers ~k ~exclude:(fun p -> exclude qi p) ()) queries

  let query_into t ~routers ~best ~seen ~exclude =
    List.iter
      (fun (p, d) ->
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.add seen p ();
          Topk.offer best (d, p)
        end)
      (B.query t ~routers ~k:(Topk.capacity best) ~exclude ())
end

(* A backend packed with its state and a metrics sink: the dynamic form the
   server and the experiments route every call through.  The trace records
   "registry_insert" / "registry_remove" / "registry_query" identically for
   every backend; backend-specific costs (overlay hops, lookups, shard
   sizes) surface through [stats]. *)
type t =
  | Registry : {
      backend : (module S with type t = 'a);
      state : 'a;
      trace : Simkit.Trace.t;
    }
      -> t

let create ?trace (module B : S) ~landmark =
  let trace = match trace with Some t -> t | None -> Simkit.Trace.create () in
  Registry { backend = (module B); state = B.create ~landmark; trace }

let name (Registry r) =
  let module B = (val r.backend) in
  B.backend_name

let landmark (Registry r) =
  let module B = (val r.backend) in
  B.landmark r.state

let insert (Registry r) ~peer ~routers =
  let module B = (val r.backend) in
  Simkit.Trace.incr r.trace "registry_insert";
  B.insert r.state ~peer ~routers

let remove (Registry r) peer =
  let module B = (val r.backend) in
  Simkit.Trace.incr r.trace "registry_remove";
  B.remove r.state peer

let mem (Registry r) peer =
  let module B = (val r.backend) in
  B.mem r.state peer

let member_count (Registry r) =
  let module B = (val r.backend) in
  B.member_count r.state

let path_of (Registry r) peer =
  let module B = (val r.backend) in
  B.path_of r.state peer

let iter_members (Registry r) f =
  let module B = (val r.backend) in
  B.iter_members r.state f

let dtree (Registry r) p1 p2 =
  let module B = (val r.backend) in
  B.dtree r.state p1 p2

let query (Registry r) ~routers ~k ?(exclude = fun _ -> false) () =
  let module B = (val r.backend) in
  Simkit.Trace.incr r.trace "registry_query";
  B.query r.state ~routers ~k ~exclude ()

let query_member (Registry r) ~peer ~k =
  let module B = (val r.backend) in
  Simkit.Trace.incr r.trace "registry_query";
  B.query_member r.state ~peer ~k

(* Batch calls keep the per-op counter semantics: a batch of n counts as n,
   so dashboards cannot tell (and need not care) how calls were batched. *)
let insert_many (Registry r) entries =
  let module B = (val r.backend) in
  Simkit.Trace.add_count r.trace "registry_insert" (Array.length entries);
  B.insert_many r.state entries

let query_many (Registry r) ~queries ~k ?(exclude = fun _ _ -> false) () =
  let module B = (val r.backend) in
  Simkit.Trace.add_count r.trace "registry_query" (Array.length queries);
  B.query_many r.state ~queries ~k ~exclude ()

let query_member_many (Registry r) ~peers ~k =
  let module B = (val r.backend) in
  Simkit.Trace.add_count r.trace "registry_query" (Array.length peers);
  let queries =
    Array.map
      (fun peer ->
        match B.path_of r.state peer with Some routers -> routers | None -> raise Not_found)
      peers
  in
  B.query_many r.state ~queries ~k ~exclude:(fun qi p -> p = peers.(qi)) ()

let stats (Registry r) =
  let module B = (val r.backend) in
  B.stats r.state

let introspect (Registry r) =
  let module B = (val r.backend) in
  B.introspect r.state

let digest (Registry r) =
  let module B = (val r.backend) in
  B.digest r.state

let snapshot (Registry r) =
  let module B = (val r.backend) in
  B.snapshot r.state

let restore ?trace (module B : S) data =
  let trace = match trace with Some t -> t | None -> Simkit.Trace.create () in
  match B.restore data with
  | Ok state -> Ok (Registry { backend = (module B); state; trace })
  | Error e -> Error e

let check_invariants (Registry r) =
  let module B = (val r.backend) in
  B.check_invariants r.state

(* Sum assoc-list stats (as returned by [stats]) across several registries,
   e.g. the server's per-landmark instances. *)
let merge_stats lists =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun kvs ->
      List.iter
        (fun (key, v) ->
          Hashtbl.replace acc key (v + Option.value ~default:0 (Hashtbl.find_opt acc key)))
        kvs)
    lists;
  Hashtbl.fold (fun key v out -> (key, v) :: out) acc [] |> List.sort compare
