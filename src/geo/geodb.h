// Prefix -> country IP geolocation database (our MaxMind GeoLite2 stand-in).
//
// The real study used MaxMind only for country-level aggregation, so the
// database maps IPv6 prefixes to country codes with longest-prefix-match
// lookup. A configurable error rate lets experiments model MaxMind's
// imperfect accuracy: a "wrong" entry resolves to a different country than
// the ground truth it was built from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "geo/country.h"
#include "net/prefix.h"

namespace v6::geo {

class GeoDatabase {
 public:
  // Registers a prefix->country mapping; later insertions overwrite.
  void add(const net::Ipv6Prefix& prefix, CountryCode country);

  // Longest-prefix match on the registered entries.
  std::optional<CountryCode> lookup(const net::Ipv6Address& address) const;

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  // Keyed by (hi64 of prefix address, prefix length); we only ever register
  // prefixes of length <= 64, which the add() precondition enforces.
  std::map<std::pair<std::uint64_t, int>, CountryCode> entries_;
  // The distinct registered prefix lengths, longest first: lookup() probes
  // only these (a world registers /32s almost exclusively, and the pool
  // DNS looks up every captured poll).
  std::vector<int> lengths_;
};

}  // namespace v6::geo
