// Deterministic NTP client poll schedules.
//
// Every pool-using device polls on an irregular cadence around its
// configured interval, gated by how often it is online. The schedule is a
// pure function of the device seed, so collection passes can re-enumerate
// it identically — the reproducibility backbone of the whole study.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/device.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::ntp {

class ClientSchedule {
 public:
  ClientSchedule(const sim::Device& device, util::SimTime window_start,
                 util::SimTime window_end) noexcept;

  // Resumable position inside the enumeration. A value-type cursor makes
  // the schedule checkpointable: collection keeps one per device across
  // checkpoint epochs, so chunked enumeration yields the exact same poll
  // sequence as one uninterrupted sweep.
  struct Cursor {
    util::SimTime t = 0;
    std::uint64_t k = 0;
    bool initialized = false;
  };

  // Advances the cursor to the next poll that actually fires and returns
  // its instant, or nullopt once the window is exhausted. Polls while the
  // device is offline are skipped (the device simply doesn't ask for
  // time).
  std::optional<util::SimTime> next(Cursor& cursor) const noexcept;

  // Enumerates poll instants in [window_start, window_end); calls
  // `fn(SimTime)` for each.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Cursor cursor;
    while (const auto t = next(cursor)) fn(*t);
  }

  // Number of polls that will fire (same enumeration, counted).
  std::uint64_t count() const noexcept;

 private:
  static double unit(std::uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  // Copies of the device fields the enumeration reads, so stepping a
  // schedule never touches the Device itself (the collector steps every
  // device's schedule at each merge barrier).
  std::uint64_t seed_;
  util::SimDuration poll_interval_;  // 0: the device never polls the pool
  double online_fraction_;
  util::SimTime start_;
  util::SimTime end_;
};

}  // namespace v6::ntp
