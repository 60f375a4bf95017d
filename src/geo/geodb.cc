#include "geo/geodb.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace v6::geo {

void GeoDatabase::add(const net::Ipv6Prefix& prefix, CountryCode country) {
  if (prefix.length() > 64) {
    throw std::invalid_argument("GeoDatabase prefixes must be <= /64");
  }
  entries_[{prefix.address().hi64(), prefix.length()}] = country;
  const auto at = std::lower_bound(lengths_.begin(), lengths_.end(),
                                   prefix.length(), std::greater<>());
  if (at == lengths_.end() || *at != prefix.length()) {
    lengths_.insert(at, prefix.length());
  }
}

std::optional<CountryCode> GeoDatabase::lookup(
    const net::Ipv6Address& address) const {
  const std::uint64_t hi = address.hi64();
  // Try the registered lengths from most to least specific. Entry count
  // per address is small (ASes register /32 and sites /48-/64), so probing
  // each length is cheaper than a trie for our sizes.
  for (const int length : lengths_) {
    const std::uint64_t mask =
        length == 0 ? 0 : ~std::uint64_t{0} << (64 - length);
    const auto it = entries_.find({hi & mask, length});
    if (it != entries_.end()) return it->second;
  }
  return std::nullopt;
}

}  // namespace v6::geo
