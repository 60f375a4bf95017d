// Ethical dataset release (§3, §6): the paper publishes its corpus only at
// /48 granularity, because full addresses would expose the EUI-64 tracking
// and geolocation vectors it demonstrates. This module writes the
// aggregated artifact (sorted unique /48s with address counts, built from
// any corpus by analysis::aggregate_to_slash48) and reads it back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "net/prefix.h"

namespace v6::hitlist {

struct ReleaseEntry {
  net::Ipv6Prefix prefix;  // a /48
  std::uint64_t address_count = 0;

  friend bool operator==(const ReleaseEntry&, const ReleaseEntry&) = default;
};

// Writes "prefix/48,count" lines after a comment header. Rows whose
// address count is below `min_count` are suppressed (k-anonymity style:
// the NTP Pool operators asked for released data to be aggregated enough
// to protect individual users, and a /48 containing a single address
// aggregates nothing). The header records how many rows were withheld.
void write_release(std::ostream& out, const std::vector<ReleaseEntry>& rows,
                   std::uint64_t min_count = 1);

// Parses a release back; ignores comment lines. Throws std::runtime_error
// on malformed rows.
std::vector<ReleaseEntry> read_release(std::istream& in);

}  // namespace v6::hitlist
