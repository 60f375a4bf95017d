// Wall-clock timing for instrumentation: stage durations and query
// latencies. Simulation logic never reads it, so results stay a pure
// function of the seeds.
#pragma once

#include <chrono>

namespace v6::util {

// Microseconds on the steady clock since this function's first call.
// Measuring from a process-local epoch keeps readings small, so the double
// holds them to well under a nanosecond. Subtract two readings to time an
// interval.
inline double steady_micros() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace v6::util
