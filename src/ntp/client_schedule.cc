#include "ntp/client_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace v6::ntp {

ClientSchedule::ClientSchedule(const sim::Device& device,
                               util::SimTime window_start,
                               util::SimTime window_end) noexcept {
  const util::SimTime start = std::max(window_start, device.active_start);
  const util::SimTime end = std::min(window_end, device.active_end);
  const bool polls = device.ntp.uses_pool && device.ntp.poll_interval > 0 &&
                     device.ntp.online_fraction > 0.0 && start < end;
  if (!polls) {
    // Every instant lies at or past the end: polls_before() is 0.
    end_ = std::numeric_limits<util::SimTime>::min();
    return;
  }
  interval_ = device.ntp.poll_interval;
  jitter_key_ = util::mix64(device.seed ^ 0x171e4);
  // Phase-shift the lattice so fleets don't thunder in lockstep.
  phase_ = start + static_cast<util::SimTime>(
                       util::mix64(device.seed ^ 0x9011) %
                       static_cast<std::uint64_t>(interval_));
  end_ = end;
  online_ = static_cast<std::uint64_t>(
      std::llround(std::min(device.ntp.online_fraction, 1.0) * 0x1.0p32));
  phi_ = util::mix64(device.seed ^ 0x0411e) >> 32;
  count_ = online_before_slot(slots_before(end_));
}

}  // namespace v6::ntp
