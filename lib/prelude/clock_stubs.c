/* Monotonic nanosecond clock for Prelude.Clock.now_ns. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double nearby_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value nearby_clock_now_ns_byte(value unit)
{
  return caml_copy_double(nearby_clock_now_ns(unit));
}
