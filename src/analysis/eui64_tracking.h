// EUI-64 prevalence, tracking, and classification (§5.1, §5.2, Fig 6/7).
//
// Every EUI-64-shaped address in a corpus leaks its device's MAC address.
// The tracker aggregates those sightings per embedded MAC — across
// prefixes, ASes, and countries — and applies the paper's heuristics:
//   trackability gate:        appears in >= 2 distinct /64s
//   ASes > 1        -> "high AS"
//   countries > 1   -> "high country"
//   /64 changes > 10 -> "high transitions"
// classifying each MAC as mostly-static, prefix-reassignment, MAC-reuse,
// changing-providers, or user-movement.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/scan_source.h"
#include "net/mac.h"
#include "sim/world.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace v6::analysis {

enum class TrackingClass : std::uint8_t {
  kNotTrackable,       // never left its /64
  kMostlyStatic,       // low AS / low country / low transitions
  kPrefixReassignment, // one AS+country, many /64 transitions
  kMacReuse,           // multiple countries: several devices share the MAC
  kChangingProviders,  // multiple ASes, same country, few transitions
  kUserMovement,       // multiple ASes, same country, many transitions
};

const char* to_string(TrackingClass c) noexcept;

struct MacTrack {
  net::MacAddress mac;
  std::uint32_t slash64s = 0;     // distinct /64s the MAC appeared in
  std::uint32_t ases = 0;         // distinct origin ASes
  std::uint32_t countries = 0;    // distinct (true) countries
  std::uint32_t transitions = 0;  // /64 changes in first-seen order
  std::uint32_t first_seen = 0;
  std::uint32_t last_seen = 0;

  util::SimDuration lifetime() const noexcept {
    return static_cast<util::SimDuration>(last_seen) - first_seen;
  }
};

// One sighting on a MAC's timeline, for the Fig 7 exemplar plots.
struct TimelinePoint {
  std::uint32_t first_seen = 0;
  std::uint64_t slash64_hi = 0;
  sim::Asn asn = 0;
  geo::CountryCode country;
};

class Eui64Tracker {
 public:
  // Scans the corpus once, in order, over [0, span); `world` supplies
  // address->AS/country mapping (the paper used BGP tables and MaxMind
  // for the same purpose).
  Eui64Tracker(const ScanSource& corpus, const sim::World& world);

  // §5.1 prevalence.
  std::uint64_t eui64_addresses() const noexcept { return eui64_addresses_; }
  std::uint64_t corpus_addresses() const noexcept { return corpus_addresses_; }
  // Apparent-EUI-64 false positives expected from random IIDs: N / 2^16.
  std::uint64_t expected_random_matches() const noexcept {
    return corpus_addresses_ >> 16;
  }
  std::uint64_t unique_macs() const noexcept { return tracks_.size(); }

  std::span<const MacTrack> tracks() const noexcept { return tracks_; }

  static TrackingClass classify(const MacTrack& track) noexcept;

  // MACs appearing in >= 2 /64s (the paper's 8.7%).
  std::uint64_t trackable_macs() const;
  // Histogram over TrackingClass among trackable MACs.
  std::vector<std::pair<TrackingClass, std::uint64_t>> class_counts() const;

  // Fig 6a: lifetime of each EUI-64 IID (== each MAC).
  util::EmpiricalDistribution lifetime_distribution() const;
  // Fig 6b: CCDF points (n, fraction of MACs in > n /64s).
  std::vector<std::pair<std::uint32_t, double>> slash64_ccdf(
      std::span<const std::uint32_t> points) const;

  // The timeline of tracks()[i] (first-seen ordered), in constant time.
  std::span<const TimelinePoint> sightings(std::size_t i) const noexcept {
    return {sightings_.data() + ranges_[i].first,
            sightings_.data() + ranges_[i].second};
  }

  // The sighting timeline of one MAC (first-seen ordered); searches the
  // tracks linearly.
  std::vector<TimelinePoint> timeline(const net::MacAddress& mac) const;

  // A representative exemplar MAC for each class, if one exists (Fig 7).
  std::vector<std::pair<TrackingClass, net::MacAddress>> exemplars() const;

 private:
  const sim::World* world_;
  std::uint64_t corpus_addresses_ = 0;
  std::uint64_t eui64_addresses_ = 0;
  std::vector<MacTrack> tracks_;
  // Sightings sorted by (mac, first_seen); index range per track.
  std::vector<TimelinePoint> sightings_;
  std::vector<std::pair<std::size_t, std::size_t>> ranges_;  // per track
};

}  // namespace v6::analysis
