// Deterministic NTP client poll schedules.
//
// Every pool-using device polls on a jittered lattice around its
// configured interval I, gated by how often it is online. The schedule is
// a pure function of the device seed, so collection passes can
// re-enumerate it identically — the reproducibility backbone of the whole
// study.
//
// Slot k falls at phase + k·I + ⌊I·u(seed, k)⌋ with u uniform in [0, 1),
// so consecutive slots are 1..2I−1 seconds apart and slot k's instant
// needs no prefix sum. The first slot at or after any instant is one
// division plus a ±1 fix. Slot k is online iff ⌊(k+1)F+Φ⌋ > ⌊kF+Φ⌋ in
// 32.32 fixed point, with F the online fraction and Φ a keyed phase: an
// equidistributed duty cycle, so the online slots before slot k number
// ⌊kF+Φ⌋ and the j-th online slot is one division. Every query below is
// therefore O(1), and a chunk of the window costs the same whatever its
// length.
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

  // Resumable position inside the enumeration: the number of polls
  // already returned. A value-type cursor makes the schedule
  // checkpointable: chunked enumeration yields the exact same poll
  // sequence as one uninterrupted sweep.
  struct Cursor {
    std::uint64_t polls = 0;
  };

  // Advances the cursor to the next poll that actually fires and returns
  // its instant, or nullopt once the window is exhausted. Offline slots
  // are skipped (the device simply doesn't ask for time).
  std::optional<util::SimTime> next(Cursor& cursor) const noexcept {
    if (cursor.polls >= count_) return std::nullopt;
    return poll_time(cursor.polls++);
  }

  // Enumerates poll instants in [window_start, window_end); calls
  // `fn(SimTime)` for each.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    Cursor cursor;
    while (const auto t = next(cursor)) fn(*t);
  }

  // Number of polls that will fire in the window.
  std::uint64_t count() const noexcept { return count_; }

  // Polls that fire in [start of the window, t).
  std::uint64_t polls_before(util::SimTime t) const noexcept {
    if (t >= end_) return count_;
    return online_before_slot(slots_before(t));
  }

  // Polls that fire in [a, b); 0 when b <= a.
  std::uint64_t online_count(util::SimTime a, util::SimTime b) const noexcept {
    return b <= a ? 0 : polls_before(b) - polls_before(a);
  }

  // The instant of poll j (0-based), for j < count().
  util::SimTime poll_time(std::uint64_t j) const noexcept {
    // The smallest slot k with ⌊(k+1)F+Φ⌋ >= j+1.
    const std::uint64_t need = ((j + 1) << 32) - phi_;
    return slot_time((need + online_ - 1) / online_ - 1);
  }

  // Slot k's instant, online or not (exposed for tests).
  util::SimTime slot_time(std::uint64_t k) const noexcept {
    const auto h = static_cast<unsigned __int128>(
        util::mix64(jitter_key_ + k * 0x9e3779b97f4a7c15ULL));
    const auto jitter = static_cast<util::SimDuration>(
        (h * static_cast<std::uint64_t>(interval_)) >> 64);
    return phase_ + static_cast<util::SimTime>(k) * interval_ + jitter;
  }

 private:
  // Slots whose instant is < t: the estimate ⌊(t−phase)/I⌋ is exact or
  // one short, since slot k lies in [phase + k·I, phase + (k+1)·I).
  std::uint64_t slots_before(util::SimTime t) const noexcept {
    if (t <= phase_) return 0;
    const auto k = static_cast<std::uint64_t>((t - phase_) / interval_);
    return slot_time(k) < t ? k + 1 : k;
  }

  std::uint64_t online_before_slot(std::uint64_t k) const noexcept {
    return (k * online_ + phi_) >> 32;
  }

  // Copies of the device fields the enumeration reads, so a schedule
  // never touches the Device itself.
  std::uint64_t jitter_key_ = 0;
  util::SimDuration interval_ = 1;
  util::SimTime phase_ = 0;  // slot 0's lattice point
  util::SimTime end_ = 0;
  std::uint64_t online_ = 0;  // F: online fraction in 32.32 fixed point
  std::uint64_t phi_ = 0;     // Φ: keyed phase of the duty cycle, < 2^32
  std::uint64_t count_ = 0;   // polls in the window
};

}  // namespace v6::ntp
