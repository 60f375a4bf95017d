#include "ntp/client_schedule.h"

#include <algorithm>

namespace v6::ntp {

ClientSchedule::ClientSchedule(const sim::Device& device,
                               util::SimTime window_start,
                               util::SimTime window_end) noexcept
    : seed_(device.seed),
      poll_interval_(device.ntp.uses_pool && device.ntp.poll_interval > 0
                         ? device.ntp.poll_interval
                         : 0),
      online_fraction_(device.ntp.online_fraction),
      start_(std::max(window_start, device.active_start)),
      end_(std::min(window_end, device.active_end)) {}

std::optional<util::SimTime> ClientSchedule::next(
    Cursor& cursor) const noexcept {
  if (poll_interval_ == 0) return std::nullopt;
  if (!cursor.initialized) {
    // Phase-shift the first poll so fleets don't thunder in lockstep.
    cursor.t = start_ + static_cast<util::SimTime>(
                            util::mix64(seed_ ^ 0x9011) %
                            static_cast<std::uint64_t>(poll_interval_));
    cursor.k = 0;
    cursor.initialized = true;
  }
  const double interval = static_cast<double>(poll_interval_);
  while (cursor.t < end_) {
    const util::SimTime t = cursor.t;
    const std::uint64_t k = cursor.k;
    const double online_roll =
        unit(util::mix64(seed_ ^ 0x0411e ^ util::mix64(k)));
    // Next poll: 0.5x..1.5x the nominal interval.
    const double jitter =
        0.5 + unit(util::mix64(seed_ ^ 0x171e4 ^ util::mix64(k)));
    cursor.t += static_cast<util::SimDuration>(interval * jitter) + 1;
    ++cursor.k;
    if (online_roll < online_fraction_) return t;
  }
  return std::nullopt;
}

std::uint64_t ClientSchedule::count() const noexcept {
  std::uint64_t n = 0;
  for_each([&n](util::SimTime) { ++n; });
  return n;
}

}  // namespace v6::ntp
