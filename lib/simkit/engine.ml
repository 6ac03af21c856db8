(* A binary min-heap on (time, seq) in three parallel arrays: times stay
   unboxed in a float array, so scheduling and firing an event allocates
   nothing beyond the caller's closure (and the occasional doubling of the
   arrays).  [seq] is unique per engine, so the order is total and equal-time
   events fire in schedule order.  The clock is a float-only record, so
   advancing it stores the float flat instead of boxing it. *)
type clock = { mutable now : float }

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable bodies : (unit -> unit) array;
  mutable size : int;
  clock : clock;
  mutable next_seq : int;
  mutable processed : int;
}

let nothing () = ()
let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    bodies = Array.make initial_capacity nothing;
    size = 0;
    clock = { now = 0.0 };
    next_seq = 0;
    processed = 0;
  }

let now t = t.clock.now

let grow t =
  let capacity = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make capacity fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.bodies <- extend t.bodies nothing

(* Move the hole at [i] up until [time] fits, then fill it.  A new event
   carries the largest seq so far, so it rises only past strictly later
   times. *)
let sift_up t i time seq body =
  let times = t.times and seqs = t.seqs and bodies = t.bodies in
  let i = ref i and settled = ref false in
  while (not !settled) && !i > 0 do
    let p = (!i - 1) / 2 in
    if times.(p) > time then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      bodies.(!i) <- bodies.(p);
      i := p
    end
    else settled := true
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  bodies.(!i) <- body

(* Move the entry at [from] into the hole at the root, sifting down over
   the first [t.size] slots. *)
let sift_down t from =
  let times = t.times and seqs = t.seqs and bodies = t.bodies and n = t.size in
  let time = times.(from) and seq = seqs.(from) and body = bodies.(from) in
  let i = ref 0 and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= n then settled := true
    else begin
      let r = l + 1 in
      let c =
        if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        bodies.(!i) <- bodies.(c);
        i := c
      end
      else settled := true
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  bodies.(!i) <- body

let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  if time < t.clock.now then invalid_arg "Engine.schedule_at: time is in the past";
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq f

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock.now +. delay) f

let step t =
  if t.size = 0 then false
  else begin
    let body = t.bodies.(0) in
    t.clock.now <- t.times.(0);
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t last;
    (* Drop the moved slot's reference so a fired closure can be collected. *)
    t.bodies.(last) <- nothing;
    t.processed <- t.processed + 1;
    body ();
    true
  end

let run ?until t =
  let limit = match until with Some limit -> limit | None -> infinity in
  while t.size > 0 && not (t.times.(0) > limit) do
    ignore (step t)
  done;
  match until with Some limit when limit > t.clock.now -> t.clock.now <- limit | _ -> ()

let pending t = t.size
let processed t = t.processed
