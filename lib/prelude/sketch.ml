(* Mergeable quantile sketch with a relative-error guarantee.

   Log-bucketed in the DDSketch style: bucket [i] covers the value range
   (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), and a bucket
   reports the value 2*gamma^i/(gamma+1) — the point whose worst-case
   relative error against anything in the bucket is exactly alpha.  Two
   sketches with the same alpha merge by adding bucket counts, which is
   what lets per-shard and per-replica latency streams roll up into one
   fleet-wide tail.

   Counts live in a dense [int array]: slot [i - offset] holds bucket [i],
   and [lo]/[hi] bracket the populated buckets.  A latency stream fills a
   narrow contiguous band (alpha = 0.01 spans 1 ms..3 s in ~400 buckets),
   so a dense array is smaller than a hashtable over the same band, and a
   quantile read is one walk over [lo, hi] with no sort.  An index outside
   the array doubles it and re-centres the populated band. *)

(* The observed extremes live in an all-float record, which OCaml stores
   unboxed: writing them allocates nothing, where float fields of the
   mixed record below would box on every [add]. *)
type extremes = { mutable min_v : float; mutable max_v : float }

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  mutable counts : int array;  (* counts.(i - offset) = bucket i *)
  mutable offset : int;
  mutable lo : int;  (* lowest populated bucket; lo > hi when none is *)
  mutable hi : int;
  mutable zero : int;  (* NaN and values below the trackable floor *)
  mutable total : int;
  ext : extremes;
}

let default_alpha = 0.01

(* Below this, log-bucketing explodes into deeply negative indexes for no
   analytical gain; such values (and NaN, and negatives) share one exact
   zero bucket. *)
let min_trackable = 1e-9

(* Values above this (and +inf) share the top bucket, which bounds the
   dense array at a few thousand slots whatever the stream holds. *)
let max_trackable = 1e18

(* The first populated bucket allocates this many slots. *)
let initial_slots = 16

let create ?(alpha = default_alpha) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha outside (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    counts = [||];
    offset = 0;
    lo = max_int;
    hi = min_int;
    zero = 0;
    total = 0;
    ext = { min_v = infinity; max_v = neg_infinity };
  }

let alpha t = t.alpha
let count t = t.total
let is_empty t = t.total = 0

let bucket_of t v = int_of_float (Float.ceil (log (Float.min v max_trackable) /. t.log_gamma))
let value_of t i = 2.0 *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.0)

(* Make buckets [lo, hi] addressable.  An empty sketch re-centres its array
   in place; otherwise the array doubles until the union of the populated
   band and [lo, hi] fits, centred in the new array. *)
let reserve t lo hi =
  let len = Array.length t.counts in
  if lo < t.offset || hi >= t.offset + len then begin
    let empty = t.lo > t.hi in
    let lo' = if empty then lo else min lo t.lo in
    let hi' = if empty then hi else max hi t.hi in
    let span = hi' - lo' + 1 in
    if empty && span <= len then t.offset <- lo' - ((len - span) / 2)
    else begin
      let n = ref (max initial_slots (2 * len)) in
      while !n < span do
        n := 2 * !n
      done;
      let counts = Array.make !n 0 in
      let offset = lo' - ((!n - span) / 2) in
      if not empty then
        Array.blit t.counts (t.lo - t.offset) counts (t.lo - offset) (t.hi - t.lo + 1);
      t.counts <- counts;
      t.offset <- offset
    end
  end

let add t v =
  let v = if Float.is_nan v then 0.0 else v in
  if v <= min_trackable then t.zero <- t.zero + 1
  else begin
    let i = bucket_of t v in
    reserve t i i;
    let slot = i - t.offset in
    t.counts.(slot) <- t.counts.(slot) + 1;
    if i < t.lo then t.lo <- i;
    if i > t.hi then t.hi <- i
  end;
  t.total <- t.total + 1;
  if v < t.ext.min_v then t.ext.min_v <- v;
  if v > t.ext.max_v then t.ext.max_v <- v

let clear t =
  if t.lo <= t.hi then Array.fill t.counts (t.lo - t.offset) (t.hi - t.lo + 1) 0;
  t.lo <- max_int;
  t.hi <- min_int;
  t.zero <- 0;
  t.total <- 0;
  t.ext.min_v <- infinity;
  t.ext.max_v <- neg_infinity

let merge_into ~into src =
  if into.alpha <> src.alpha then
    invalid_arg "Sketch.merge_into: relative-error bounds differ";
  if src.lo <= src.hi then begin
    reserve into src.lo src.hi;
    for i = src.lo to src.hi do
      let slot = i - into.offset in
      into.counts.(slot) <- into.counts.(slot) + src.counts.(i - src.offset)
    done;
    if src.lo < into.lo then into.lo <- src.lo;
    if src.hi > into.hi then into.hi <- src.hi
  end;
  into.zero <- into.zero + src.zero;
  into.total <- into.total + src.total;
  if src.ext.min_v < into.ext.min_v then into.ext.min_v <- src.ext.min_v;
  if src.ext.max_v > into.ext.max_v then into.ext.max_v <- src.ext.max_v

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Sketch.quantile: q outside [0, 1]";
  if t.total = 0 then nan
  else begin
    (* 0-based rank of the order statistic we are after. *)
    let rank = int_of_float (q *. float_of_int (t.total - 1)) in
    if rank < t.zero then Float.max 0.0 t.ext.min_v
    else begin
      let i = ref t.lo and seen = ref (t.zero + t.counts.(t.lo - t.offset)) in
      while !seen <= rank do
        incr i;
        seen := !seen + t.counts.(!i - t.offset)
      done;
      (* Clamp to the observed extremes: the bound only tightens. *)
      Float.min t.ext.max_v (Float.max t.ext.min_v (value_of t !i))
    end
  end

let buckets_used t =
  let used = ref (if t.zero > 0 then 1 else 0) in
  for i = t.lo to t.hi do
    if t.counts.(i - t.offset) > 0 then incr used
  done;
  !used
