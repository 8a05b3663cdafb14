#define _POSIX_C_SOURCE 199309L
#include <time.h>
#include <caml/mlvalues.h>

/* CLOCK_MONOTONIC in nanoseconds: one time base shared by the client and
   every traced server process, so spans from different processes can be
   subtracted. */
value jimbench_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
