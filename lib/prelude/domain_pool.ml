(* A small persistent pool of worker domains for scatter-style jobs.

   [run pool n f] evaluates [f 0 .. f (n-1)] with the calling domain
   participating alongside the workers, and returns only when every task has
   finished.  Tasks are claimed one at a time from a shared counter under the
   pool mutex, so uneven task costs balance automatically.

   Spawning a domain costs ~100us and OCaml 5 caps the useful domain count at
   the core count, so pools are created once and reused; workers sleep on a
   condition variable between jobs.  The pool is meant to be driven from one
   orchestrating domain: concurrent [run] calls from different domains are
   not supported, and a reentrant [run] from inside a task falls back to
   sequential execution (the [busy] flag). *)

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable run_fn : int -> unit;
  mutable ntasks : int;
  mutable next_task : int;
  mutable completed : int;
  mutable generation : int;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable busy : bool;
  mutable domains : unit Domain.t array;
  (* Utilization accounting, all mutated under [mutex]: wall-clock origin
     of the current accounting window, nanoseconds spent inside task
     bodies (any domain), and job/task counts. *)
  mutable window_start : float;
  mutable busy_ns : float;
  mutable jobs : int;
  mutable tasks : int;
}

type utilization = {
  domains : int;
  wall_ns : float;
  busy_ns : float;
  idle_ns : float;
  jobs : int;
  tasks : int;
}

let no_job (_ : int) = ()

(* Claim and run tasks of generation [gen] until none remain.  The mutex is
   held on entry and on exit; it is released around each task body. *)
let claim t gen =
  while t.generation = gen && t.next_task < t.ntasks do
    let i = t.next_task in
    t.next_task <- i + 1;
    let fn = t.run_fn in
    Mutex.unlock t.mutex;
    let started = Clock.now_ns () in
    let failure =
      try
        fn i;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let elapsed = Clock.now_ns () -. started in
    Mutex.lock t.mutex;
    (match failure with
    | Some _ when t.exn = None -> t.exn <- failure
    | _ -> ());
    t.busy_ns <- t.busy_ns +. elapsed;
    t.tasks <- t.tasks + 1;
    t.completed <- t.completed + 1;
    if t.completed >= t.ntasks then Condition.broadcast t.work_done
  done

let worker t =
  Mutex.lock t.mutex;
  let last = ref 0 in
  while not t.stop do
    if t.generation > !last then begin
      let gen = t.generation in
      last := gen;
      claim t gen
    end
    else Condition.wait t.work_ready t.mutex
  done;
  Mutex.unlock t.mutex

let create ?(domains = Domain.recommended_domain_count ()) () =
  let domains = max 1 (min domains 64) in
  let t =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      run_fn = no_job;
      ntasks = 0;
      next_task = 0;
      completed = 0;
      generation = 0;
      exn = None;
      stop = false;
      busy = false;
      domains = [||];
      window_start = Clock.now_ns ();
      busy_ns = 0.0;
      jobs = 0;
      tasks = 0;
    }
  in
  (* The caller participates in every job, so [domains] total parallelism
     needs [domains - 1] spawned workers. *)
  t.domains <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size (t : t) = Array.length t.domains + 1

let run t n f =
  if n > 0 then
    if t.busy || n = 1 || Array.length t.domains = 0 then begin
      let started = Clock.now_ns () in
      for i = 0 to n - 1 do
        f i
      done;
      let elapsed = Clock.now_ns () -. started in
      Mutex.lock t.mutex;
      t.busy_ns <- t.busy_ns +. elapsed;
      t.tasks <- t.tasks + n;
      t.jobs <- t.jobs + 1;
      Mutex.unlock t.mutex
    end
    else begin
      Mutex.lock t.mutex;
      t.busy <- true;
      t.jobs <- t.jobs + 1;
      t.run_fn <- f;
      t.ntasks <- n;
      t.next_task <- 0;
      t.completed <- 0;
      t.exn <- None;
      t.generation <- t.generation + 1;
      let gen = t.generation in
      Condition.broadcast t.work_ready;
      claim t gen;
      while t.completed < n do
        Condition.wait t.work_done t.mutex
      done;
      t.run_fn <- no_job;
      t.busy <- false;
      let failure = t.exn in
      t.exn <- None;
      Mutex.unlock t.mutex;
      match failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

(* Capacity is [size t] domain-seconds per wall second: the caller is a
   full participant while a job runs, and idle the rest of the time just
   like a sleeping worker.  Defining idle as capacity minus busy makes
   busy + idle account for all worker time by construction, and makes a
   pool that never ran a job report pure idle. *)
let utilization t =
  Mutex.lock t.mutex;
  let wall = Float.max 0.0 (Clock.now_ns () -. t.window_start) in
  let capacity = float_of_int (Array.length t.domains + 1) *. wall in
  let busy = Float.min t.busy_ns capacity in
  let u =
    {
      domains = Array.length t.domains + 1;
      wall_ns = wall;
      busy_ns = busy;
      idle_ns = Float.max 0.0 (capacity -. busy);
      jobs = t.jobs;
      tasks = t.tasks;
    }
  in
  Mutex.unlock t.mutex;
  u

let reset_utilization t =
  Mutex.lock t.mutex;
  t.window_start <- Clock.now_ns ();
  t.busy_ns <- 0.0;
  t.jobs <- 0;
  t.tasks <- 0;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work_ready
  end;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

(* One process-wide pool sized to the machine, created on first use and
   joined at exit (OCaml 5 requires every domain joined before teardown). *)
let shared_instance = ref None

let shared () =
  match !shared_instance with
  | Some p -> p
  | None ->
      let p = create () in
      shared_instance := Some p;
      at_exit (fun () -> shutdown p);
      p
