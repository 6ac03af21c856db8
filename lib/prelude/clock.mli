(** The one wall clock for timing the implementation.

    [clock_gettime(CLOCK_MONOTONIC)] in nanoseconds: it never steps back
    when the system time is adjusted, and it resolves sub-microsecond
    operations that a microsecond wall clock would record as 0.  Every
    default timing clock of the libraries ({!Domain_pool} utilization,
    [Simkit.Runtime_profile], the sharded and instrumented registries)
    reads it.  Simulated time never comes from here. *)

external now_ns : unit -> (float[@unboxed])
  = "nearby_clock_now_ns_byte" "nearby_clock_now_ns"
[@@noalloc]
(** Nanoseconds since an arbitrary fixed origin (the boot, on Linux);
    only differences are meaningful.  Reads are non-decreasing and do not
    allocate. *)
