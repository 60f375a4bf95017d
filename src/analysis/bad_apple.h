// "One Bad Apple" linkage (Saidi, Gasser, Smaragdakis — SIGCOMM CCR'22,
// the paper's reference [66]): a single EUI-64 device inside a home
// de-anonymizes everyone behind the same prefix.
//
// Privacy addresses rotate, and provider prefix rotation is supposed to
// unlink a household's address history. But if even one gadget in the LAN
// uses EUI-64, its stable MAC tags every delegated prefix the household
// ever holds — and every *other* address observed inside those /64s
// (the phones and laptops doing everything right) becomes linkable to one
// subscriber line across rotations.
#pragma once

#include <cstdint>

#include "analysis/eui64_tracking.h"
#include "analysis/scan_source.h"

namespace v6::analysis {

struct BadAppleReport {
  // EUI-64 MACs that shared at least one /64 with other observed hosts.
  std::uint64_t apples_with_cotenants = 0;
  // Non-EUI-64 corpus addresses observed in an apple-tagged /64.
  std::uint64_t linked_addresses = 0;
  // ...of which high-entropy privacy addresses (the ones whose whole
  // point was unlinkability).
  std::uint64_t linked_privacy_addresses = 0;
  // Apples whose tag joins co-tenant addresses across >= 2 distinct /64s
  // (i.e., the household's history is actually stitched across a prefix
  // rotation, not just within one delegation).
  std::uint64_t households_stitched_across_prefixes = 0;
};

// Joins the corpus against the tracker's EUI-64 sightings.
BadAppleReport bad_apple_linkage(const ScanSource& corpus,
                                 const Eui64Tracker& tracker);

}  // namespace v6::analysis
