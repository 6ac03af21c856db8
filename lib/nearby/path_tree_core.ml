module type COST = sig
  type t

  val zero : t
  val add : t -> t -> t
  val compare : t -> t -> int
end

module Make (Cost : COST) = struct
  type peer = int

  (* --- Flat bucket storage ---------------------------------------------

     A router bucket holds its (cost-to-router, peer) entries in a short
     array of sorted chunks: parallel [costs]/[peers] arrays, ascending by
     (cost, peer).  Compared to the AVL set this replaces, entries cost two
     unboxed words instead of a five-word tree node and scans are
     cache-linear.  Insertion is a binary search to the right chunk plus a
     [blit]; chunks split at [chunk_cap] so a single insert never moves
     more than [chunk_cap] words.

     A batch writes each touched chunk once, in place ([bucket_add_sorted]):
     a chunk with room takes its k additions by a backward galloping merge
     (k searches and k blits, no allocation), and only a chunk that would
     overflow is rebuilt, into evenly filled chunks spliced where it stood.
     Untouched chunks cost nothing, so a small batch into a large bucket
     pays what the same entries would pay one [insert] at a time. *)

  let chunk_cap = 512
  let seed_cap = 8
  let spare_limit = 64

  type chunk = {
    mutable costs : Cost.t array;
    mutable cpeers : int array;
    mutable clen : int;
  }

  type bucket = {
    mutable chunks : chunk array;
    mutable nchunks : int;
    mutable total : int;
  }

  (* A registered path, flattened to parallel arrays: half the words of a
     (router, cost) pair array, and unboxed for both int and float costs. *)
  type path = { routers : int array; pcosts : Cost.t array }

  type t = {
    landmark : Topology.Graph.node;
    paths : (peer, path) Hashtbl.t;
    buckets : (Topology.Graph.node, bucket) Hashtbl.t;
    (* Arena of retired full-size chunks, reused by splits and bulk merges
       so churn does not hammer the allocator. *)
    mutable spare : chunk list;
    mutable nspare : int;
    (* XOR of [Registry_intf.entry_digest] per member, kept in lockstep by
       [store_path]/[remove]. *)
    mutable digest : int64;
  }

  let create ~landmark =
    {
      landmark;
      paths = Hashtbl.create 64;
      buckets = Hashtbl.create 256;
      spare = [];
      nspare = 0;
      digest = Registry_intf.empty_digest;
    }

  let landmark t = t.landmark
  let member_count t = Hashtbl.length t.paths
  let mem t p = Hashtbl.mem t.paths p
  let router_count t = Hashtbl.length t.buckets
  let digest t = t.digest

  let entry_compare c1 p1 c2 p2 =
    match Cost.compare c1 c2 with 0 -> Int.compare p1 p2 | c -> c

  let fresh_chunk cap =
    { costs = Array.make cap Cost.zero; cpeers = Array.make cap 0; clen = 0 }

  let alloc_full t =
    match t.spare with
    | c :: rest ->
        t.spare <- rest;
        t.nspare <- t.nspare - 1;
        c.clen <- 0;
        c
    | [] -> fresh_chunk chunk_cap

  let retire_chunk t c =
    if Array.length c.costs = chunk_cap && t.nspare < spare_limit then begin
      c.clen <- 0;
      t.spare <- c :: t.spare;
      t.nspare <- t.nspare + 1
    end

  let resize c cap =
    let costs = Array.make cap Cost.zero and cpeers = Array.make cap 0 in
    Array.blit c.costs 0 costs 0 c.clen;
    Array.blit c.cpeers 0 cpeers 0 c.clen;
    c.costs <- costs;
    c.cpeers <- cpeers

  (* First index in [c]'s prefix [0, n) whose entry is >= (cost, p). *)
  let chunk_lower c n cost p =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if entry_compare c.costs.(mid) c.cpeers.(mid) cost p < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let last_cost c = c.costs.(c.clen - 1)
  let last_peer c = c.cpeers.(c.clen - 1)

  (* Index of the chunk among [0, top] whose range should hold (cost, p):
     the first whose last entry is >= the key, or [top] when the key is
     beyond every range.  Requires [0 <= top < b.nchunks]. *)
  let chunk_for b top cost p =
    let lo = ref 0 and hi = ref top in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = b.chunks.(mid) in
      if entry_compare (last_cost c) (last_peer c) cost p < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let bucket_chunk_for b cost p = chunk_for b (b.nchunks - 1) cost p

  (* Room for [need] chunk slots; [fill] pads the new array. *)
  let reserve_chunks b need fill =
    let len = Array.length b.chunks in
    if need > len then begin
      let arr = Array.make (max need (2 * len)) fill in
      Array.blit b.chunks 0 arr 0 b.nchunks;
      b.chunks <- arr
    end

  let bucket_insert_chunk b ci c =
    let n = b.nchunks in
    reserve_chunks b (max 2 (n + 1)) c;
    Array.blit b.chunks ci b.chunks (ci + 1) (n - ci);
    b.chunks.(ci) <- c;
    b.nchunks <- n + 1

  let split_chunk t b ci =
    let c = b.chunks.(ci) in
    let half = c.clen / 2 in
    let upper = alloc_full t in
    let ulen = c.clen - half in
    Array.blit c.costs half upper.costs 0 ulen;
    Array.blit c.cpeers half upper.cpeers 0 ulen;
    upper.clen <- ulen;
    c.clen <- half;
    bucket_insert_chunk b (ci + 1) upper

  let chunk_insert_at c pos cost p =
    if c.clen = Array.length c.costs then resize c (min chunk_cap (2 * c.clen));
    let n = c.clen in
    Array.blit c.costs pos c.costs (pos + 1) (n - pos);
    Array.blit c.cpeers pos c.cpeers (pos + 1) (n - pos);
    c.costs.(pos) <- cost;
    c.cpeers.(pos) <- p;
    c.clen <- n + 1

  let bucket_add t b cost p =
    (if b.nchunks = 0 then begin
       let c = fresh_chunk seed_cap in
       c.costs.(0) <- cost;
       c.cpeers.(0) <- p;
       c.clen <- 1;
       bucket_insert_chunk b 0 c
     end
     else begin
       let ci = ref (bucket_chunk_for b cost p) in
       let c0 = b.chunks.(!ci) in
       if c0.clen >= chunk_cap then begin
         split_chunk t b !ci;
         let lower = b.chunks.(!ci) in
         if entry_compare (last_cost lower) (last_peer lower) cost p < 0 then incr ci
       end;
       let c = b.chunks.(!ci) in
       chunk_insert_at c (chunk_lower c c.clen cost p) cost p
     end);
    b.total <- b.total + 1

  (* Silent no-op when absent, matching the Set.remove this replaces; the
     structural invariants guarantee presence on every live code path. *)
  let bucket_remove t b cost p =
    if b.nchunks > 0 then begin
      let ci = bucket_chunk_for b cost p in
      let c = b.chunks.(ci) in
      let pos = chunk_lower c c.clen cost p in
      if pos < c.clen && entry_compare c.costs.(pos) c.cpeers.(pos) cost p = 0 then begin
        Array.blit c.costs (pos + 1) c.costs pos (c.clen - pos - 1);
        Array.blit c.cpeers (pos + 1) c.cpeers pos (c.clen - pos - 1);
        c.clen <- c.clen - 1;
        b.total <- b.total - 1;
        if c.clen = 0 then begin
          Array.blit b.chunks (ci + 1) b.chunks ci (b.nchunks - ci - 1);
          b.nchunks <- b.nchunks - 1;
          retire_chunk t c
        end
      end
    end

  let bucket_mem b cost p =
    b.nchunks > 0
    &&
    let ci = bucket_chunk_for b cost p in
    let c = b.chunks.(ci) in
    let pos = chunk_lower c c.clen cost p in
    pos < c.clen && entry_compare c.costs.(pos) c.cpeers.(pos) cost p = 0

  (* First index in [lo, hi) of the sorted additions whose entry is
     > (cost, p). *)
  let first_above acosts apeers lo hi cost p =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if entry_compare acosts.(mid) apeers.(mid) cost p <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* [f ci lo hi] for every chunk [ci] the sorted additions [a0, a1) land
     in, right to left, with [lo, hi) the additions it receives (the same
     chunk [bucket_chunk_for] picks for each).  Reads only chunks left of
     the one last passed to [f], so [f] may rewrite that chunk and anything
     to its right.  Requires [b.nchunks >= 1]. *)
  let iter_touched b acosts apeers a0 a1 f =
    let hi = ref a1 and top = ref (b.nchunks - 1) in
    while !hi > a0 do
      let ci = chunk_for b !top acosts.(!hi - 1) apeers.(!hi - 1) in
      let lo =
        if ci = 0 then a0
        else
          let prev = b.chunks.(ci - 1) in
          first_above acosts apeers a0 !hi (last_cost prev) (last_peer prev)
      in
      f ci lo !hi;
      hi := lo;
      top := ci - 1
    done

  (* Chunks beyond the one a chunk of [total] entries would need. *)
  let extra_chunks total = if total <= chunk_cap then 0 else (total - 1) / chunk_cap

  (* Backward galloping merge of additions [lo, hi) into a chunk that can
     hold them (at most [chunk_cap] entries in all): the largest remaining
     addition is binary-searched in the unmoved prefix, and the segment
     above it shifts up by one blit.  A chunk short of capacity grows to
     the exact size: the batch knows its count, so no doubling slack. *)
  let merge_in_place c acosts apeers lo hi =
    if c.clen + hi - lo > Array.length c.costs then resize c (c.clen + hi - lo);
    let top = ref c.clen in
    for j = hi - 1 downto lo do
      let pos = chunk_lower c !top acosts.(j) apeers.(j) in
      let gap = j - lo + 1 in
      Array.blit c.costs pos c.costs (pos + gap) (!top - pos);
      Array.blit c.cpeers pos c.cpeers (pos + gap) (!top - pos);
      c.costs.(pos + gap - 1) <- acosts.(j);
      c.cpeers.(pos + gap - 1) <- apeers.(j);
      top := pos
    done;
    c.clen <- c.clen + hi - lo

  (* Merge [c] and additions [lo, hi) into the fewest full-size chunks,
     filled evenly, stored at [b.chunks.(dst)] onwards. *)
  let merge_overflow t b dst c acosts apeers lo hi =
    let total = c.clen + hi - lo in
    let nout = 1 + extra_chunks total in
    let i = ref 0 and j = ref lo in
    for o = 0 to nout - 1 do
      let d = alloc_full t in
      let len = (total * (o + 1) / nout) - (total * o / nout) in
      for w = 0 to len - 1 do
        if
          !j >= hi
          || (!i < c.clen && entry_compare c.costs.(!i) c.cpeers.(!i) acosts.(!j) apeers.(!j) <= 0)
        then begin
          d.costs.(w) <- c.costs.(!i);
          d.cpeers.(w) <- c.cpeers.(!i);
          incr i
        end
        else begin
          d.costs.(w) <- acosts.(!j);
          d.cpeers.(w) <- apeers.(!j);
          incr j
        end
      done;
      d.clen <- len;
      b.chunks.(dst + o) <- d
    done;
    retire_chunk t c

  (* Add the sorted window [a0, a1) of [acosts]/[apeers] to the bucket,
     writing each touched chunk once.  An empty bucket is filled by blits.
     Otherwise a first right-to-left walk counts the chunks that overflowing
     chunks will add, and a second merges each touched chunk: in place when
     it has room, else into evenly filled chunks spliced at its slot.
     Right to left, a splice only shifts chunks already merged (one blit
     per run of untouched ones), never one still to visit, so the walk
     reads the same chunk boundaries as the count did. *)
  let bucket_add_sorted t b acosts apeers a0 a1 =
    let m = a1 - a0 in
    if m = 1 then bucket_add t b acosts.(a0) apeers.(a0)
    else if m > 1 then begin
      if b.nchunks = 0 then begin
        let pos = ref a0 in
        while !pos < a1 do
          let take = min chunk_cap (a1 - !pos) in
          let c = if take = chunk_cap then alloc_full t else fresh_chunk (max seed_cap take) in
          Array.blit acosts !pos c.costs 0 take;
          Array.blit apeers !pos c.cpeers 0 take;
          c.clen <- take;
          bucket_insert_chunk b b.nchunks c;
          pos := !pos + take
        done
      end
      else begin
        let extra = ref 0 in
        iter_touched b acosts apeers a0 a1 (fun ci lo hi ->
            extra := !extra + extra_chunks (b.chunks.(ci).clen + hi - lo));
        let extra = !extra in
        reserve_chunks b (b.nchunks + extra) b.chunks.(0);
        (* [shift]: chunks still to be added at or left of the current
           one, i.e. how far the untouched chunks right of it move. *)
        let shift = ref extra and right = ref b.nchunks in
        iter_touched b acosts apeers a0 a1 (fun ci lo hi ->
            if !shift > 0 then
              Array.blit b.chunks (ci + 1) b.chunks (ci + 1 + !shift) (!right - ci - 1);
            let c = b.chunks.(ci) in
            let grown = extra_chunks (c.clen + hi - lo) in
            shift := !shift - grown;
            if grown = 0 then begin
              merge_in_place c acosts apeers lo hi;
              b.chunks.(ci + !shift) <- c
            end
            else merge_overflow t b (ci + !shift) c acosts apeers lo hi;
            right := ci);
        b.nchunks <- b.nchunks + extra
      end;
      b.total <- b.total + m
    end

  let bucket_of t router =
    match Hashtbl.find_opt t.buckets router with
    | Some b -> b
    | None ->
        let b = { chunks = [||]; nchunks = 0; total = 0 } in
        Hashtbl.add t.buckets router b;
        b

  (* --- Registration ----------------------------------------------------- *)

  let validate t ~peer ~hops =
    let len = Array.length hops in
    if len = 0 then invalid_arg "Path_tree.insert: empty path";
    if fst hops.(len - 1) <> t.landmark then
      invalid_arg "Path_tree.insert: path must end at the landmark";
    for i = 1 to len - 1 do
      if Cost.compare (snd hops.(i - 1)) (snd hops.(i)) > 0 then
        invalid_arg "Path_tree.insert: costs must be non-decreasing"
    done;
    if Hashtbl.mem t.paths peer then invalid_arg "Path_tree.insert: peer already registered"

  let store_path t peer hops =
    let len = Array.length hops in
    let routers = Array.make len 0 and pcosts = Array.make len Cost.zero in
    for i = 0 to len - 1 do
      let router, cost = hops.(i) in
      routers.(i) <- router;
      pcosts.(i) <- cost
    done;
    Hashtbl.add t.paths peer { routers; pcosts };
    t.digest <-
      Registry_intf.combine_digests t.digest (Registry_intf.entry_digest ~peer ~routers)

  let insert t ~peer ~hops =
    validate t ~peer ~hops;
    store_path t peer hops;
    Array.iter (fun (router, cost) -> bucket_add t (bucket_of t router) cost peer) hops

  let insert_many t entries =
    let n = Array.length entries in
    if n = 1 then begin
      let peer, hops = entries.(0) in
      insert t ~peer ~hops
    end
    else if n > 1 then begin
      (* Validate the whole batch up front (including intra-batch duplicate
         peers) so a bad entry leaves the tree untouched. *)
      let batch = Hashtbl.create (2 * n) in
      Array.iter
        (fun (peer, hops) ->
          validate t ~peer ~hops;
          if Hashtbl.mem batch peer then invalid_arg "Path_tree.insert: peer already registered";
          Hashtbl.add batch peer ())
        entries;
      (* Every (router, cost, peer) addition in three flat arrays, one
         index sort by (router, cost, peer), then one sorted window per
         router handed to its bucket. *)
      let len = Array.fold_left (fun acc (_, hops) -> acc + Array.length hops) 0 entries in
      let routers = Array.make len 0 and costs = Array.make len Cost.zero in
      let peers = Array.make len 0 in
      let w = ref 0 in
      Array.iter
        (fun (peer, hops) ->
          store_path t peer hops;
          Array.iter
            (fun (router, cost) ->
              routers.(!w) <- router;
              costs.(!w) <- cost;
              peers.(!w) <- peer;
              incr w)
            hops)
        entries;
      let order = Array.init len Fun.id in
      Array.stable_sort
        (fun i j ->
          match Int.compare routers.(i) routers.(j) with
          | 0 -> entry_compare costs.(i) peers.(i) costs.(j) peers.(j)
          | c -> c)
        order;
      let acosts = Array.map (fun i -> costs.(i)) order in
      let apeers = Array.map (fun i -> peers.(i)) order in
      let a0 = ref 0 in
      while !a0 < len do
        let router = routers.(order.(!a0)) in
        let a1 = ref (!a0 + 1) in
        while !a1 < len && routers.(order.(!a1)) = router do
          incr a1
        done;
        bucket_add_sorted t (bucket_of t router) acosts apeers !a0 !a1;
        a0 := !a1
      done
    end

  let remove t peer =
    match Hashtbl.find_opt t.paths peer with
    | None -> raise Not_found
    | Some path ->
        Hashtbl.remove t.paths peer;
        t.digest <-
          Registry_intf.combine_digests t.digest
            (Registry_intf.entry_digest ~peer ~routers:path.routers);
        for i = 0 to Array.length path.routers - 1 do
          match Hashtbl.find_opt t.buckets path.routers.(i) with
          | None -> ()
          | Some b ->
              bucket_remove t b path.pcosts.(i) peer;
              if b.total = 0 then Hashtbl.remove t.buckets path.routers.(i)
        done

  let hops_of t peer =
    Option.map
      (fun p -> Array.init (Array.length p.routers) (fun i -> (p.routers.(i), p.pcosts.(i))))
      (Hashtbl.find_opt t.paths peer)

  let meeting_point t p1 p2 =
    match (Hashtbl.find_opt t.paths p1, Hashtbl.find_opt t.paths p2) with
    | Some path1, Some path2 ->
        let len1 = Array.length path1.routers and len2 = Array.length path2.routers in
        (* Longest common router suffix: both paths end at the landmark. *)
        let max_j = min len1 len2 in
        let rec suffix j =
          if j < max_j && path1.routers.(len1 - 1 - j) = path2.routers.(len2 - 1 - j) then
            suffix (j + 1)
          else j
        in
        let j = suffix 0 in
        if j = 0 then None
        else Some (path1.routers.(len1 - j), path1.pcosts.(len1 - j), path2.pcosts.(len2 - j))
    | None, _ | _, None -> None

  let dtree t p1 p2 =
    match meeting_point t p1 p2 with Some (_, c1, c2) -> Some (Cost.add c1 c2) | None -> None

  (* --- Queries ----------------------------------------------------------- *)

  (* The k best (cost, peer) candidates accumulate in the shared bounded
     selector: O(log k) per offer, equal-cost ties to the lower peer id. *)
  let candidate_compare (c1, p1) (c2, p2) =
    match Cost.compare c1 c2 with 0 -> Int.compare p1 p2 | c -> c

  let beats_worst best cost =
    match Topk.worst best with None -> true | Some (w, _) -> Cost.compare cost w <= 0

  (* Offer every candidate along [hops] into the caller's accumulator.
     [best] and [seen] may be shared across calls (the sharded scatter seeds
     the bound from the home shard; [query_many] reuses one pair across the
     whole batch).

     Cutoffs: the walk stops once the walk cost alone can no longer tie the
     k-th best, and a bucket scan stops at the first entry losing the full
     lexicographic (cost, peer) comparison.  Buckets iterate ascending by
     (dist, peer), and a peer listed later in the walk appears at a
     candidate distance no smaller than its earlier one (path costs are
     non-decreasing and tree routes traverse shared routers in a consistent
     order), so nothing cut here could have been accepted later: by the time
     the same peer resurfaces the selector's worst is only tighter.  This
     turns the former O(#co-attached) tie scans into O(k) per bucket. *)
  let query_into t ~hops ~best ~seen ~exclude =
    let len = Array.length hops in
    let i = ref 0 in
    let walking = ref true in
    while !walking && !i < len do
      let router, walk_cost = hops.(!i) in
      if not (beats_worst best walk_cost) then walking := false
      else begin
        (match Hashtbl.find_opt t.buckets router with
        | None -> ()
        | Some b -> (
            try
              for ci = 0 to b.nchunks - 1 do
                let c = b.chunks.(ci) in
                for e = 0 to c.clen - 1 do
                  let p = c.cpeers.(e) in
                  let candidate = Cost.add walk_cost c.costs.(e) in
                  if not (Topk.accepts best (candidate, p)) then raise_notrace Exit;
                  if not (Hashtbl.mem seen p) then begin
                    Hashtbl.add seen p ();
                    if not (exclude p) then Topk.offer best (candidate, p)
                  end
                done
              done
            with Exit -> ()));
        incr i
      end
    done

  let drain best = List.map (fun (cost, p) -> (p, cost)) (Topk.to_sorted_list best)

  let query t ~hops ~k ?(exclude = fun _ -> false) () =
    if k <= 0 then []
    else begin
      let seen = Hashtbl.create 64 in
      let best = Topk.create ~k candidate_compare in
      query_into t ~hops ~best ~seen ~exclude;
      drain best
    end

  let query_many t ~queries ~k ?(exclude = fun _ _ -> false) () =
    let n = Array.length queries in
    if k <= 0 then Array.make n []
    else begin
      (* One selector and one dedup table for the whole batch: [clear]
         keeps their capacity, so per-query allocation drops to the result
         list itself. *)
      let seen = Hashtbl.create 64 in
      let best = Topk.create ~k candidate_compare in
      Array.mapi
        (fun qi hops ->
          Hashtbl.clear seen;
          Topk.clear best;
          query_into t ~hops ~best ~seen ~exclude:(fun p -> exclude qi p);
          drain best)
        queries
    end

  let query_member t ~peer ~k =
    match hops_of t peer with
    | None -> raise Not_found
    | Some hops -> query t ~hops ~k ~exclude:(fun p -> p = peer) ()

  let iter_members t f = Hashtbl.iter (fun p _ -> f p) t.paths
  let iter_buckets t f = Hashtbl.iter (fun router b -> f router b.total) t.buckets

  (* Rough payload estimate in machine words times 8.  Paths: hash binding
     (3) + record (3) + two unboxed arrays (1 + len each).  Buckets: hash
     binding (3) + record (4) + chunk pointer array + per chunk a record (4)
     and two arrays at their allocated capacity.  Good for cross-backend
     comparison, not accounting. *)
  let approx_bytes t =
    let words = ref 0 in
    Hashtbl.iter
      (fun _ p -> words := !words + 8 + (2 * Array.length p.routers))
      t.paths;
    Hashtbl.iter
      (fun _ b ->
        words := !words + 8 + Array.length b.chunks;
        for ci = 0 to b.nchunks - 1 do
          words := !words + 6 + (2 * Array.length b.chunks.(ci).costs)
        done)
      t.buckets;
    8 * !words

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    Hashtbl.iter
      (fun peer p ->
        let len = Array.length p.routers in
        if len = 0 then fail "peer %d has an empty path" peer;
        if Array.length p.pcosts <> len then fail "peer %d has ragged path arrays" peer;
        if p.routers.(len - 1) <> t.landmark then
          fail "peer %d path does not end at the landmark" peer;
        for i = 0 to len - 1 do
          match Hashtbl.find_opt t.buckets p.routers.(i) with
          | None -> fail "peer %d: router %d has no bucket" peer p.routers.(i)
          | Some b ->
              if not (bucket_mem b p.pcosts.(i) peer) then
                fail "peer %d missing from bucket of router %d" peer p.routers.(i)
        done)
      t.paths;
    (* Conversely, every bucket entry must be justified by a registered
       path, and the chunk structure itself must be sound. *)
    Hashtbl.iter
      (fun router b ->
        if b.total = 0 then fail "router %d has an empty bucket" router;
        if b.nchunks > Array.length b.chunks then fail "router %d: nchunks out of range" router;
        let counted = ref 0 in
        for ci = 0 to b.nchunks - 1 do
          let c = b.chunks.(ci) in
          if c.clen = 0 then fail "router %d: empty chunk %d" router ci;
          if c.clen > Array.length c.costs then fail "router %d: chunk %d overflows" router ci;
          counted := !counted + c.clen;
          for e = 0 to c.clen - 1 do
            if e > 0 && entry_compare c.costs.(e - 1) c.cpeers.(e - 1) c.costs.(e) c.cpeers.(e) > 0
            then fail "router %d: chunk %d not sorted" router ci;
            if
              ci > 0 && e = 0
              &&
              let prev = b.chunks.(ci - 1) in
              entry_compare prev.costs.(prev.clen - 1) prev.cpeers.(prev.clen - 1) c.costs.(0)
                c.cpeers.(0)
              > 0
            then fail "router %d: chunks %d and %d out of order" router (ci - 1) ci;
            let peer = c.cpeers.(e) and cost = c.costs.(e) in
            match Hashtbl.find_opt t.paths peer with
            | None -> fail "bucket of router %d references unknown peer %d" router peer
            | Some p ->
                let justified = ref false in
                for i = 0 to Array.length p.routers - 1 do
                  if p.routers.(i) = router && Cost.compare p.pcosts.(i) cost = 0 then
                    justified := true
                done;
                if not !justified then
                  fail "bucket of router %d has stale entry for peer %d" router peer
          done
        done;
        if !counted <> b.total then
          fail "router %d: bucket total %d but %d entries" router b.total !counted)
      t.buckets;
    let recomputed =
      Hashtbl.fold
        (fun peer p acc ->
          Registry_intf.combine_digests acc
            (Registry_intf.entry_digest ~peer ~routers:p.routers))
        t.paths Registry_intf.empty_digest
    in
    if recomputed <> t.digest then
      fail "incremental digest %Ld disagrees with recomputed %Ld" t.digest recomputed
end
