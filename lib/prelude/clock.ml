external now_ns : unit -> (float[@unboxed])
  = "nearby_clock_now_ns_byte" "nearby_clock_now_ns"
[@@noalloc]
