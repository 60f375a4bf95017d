#include "hitlist/release.h"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace v6::hitlist {

void write_release(std::ostream& out, const std::vector<ReleaseEntry>& rows,
                   std::uint64_t min_count) {
  std::uint64_t suppressed = 0;
  for (const auto& row : rows) {
    if (row.address_count < min_count) ++suppressed;
  }
  out << "# v6pool active-prefix release, aggregated to /48 per the study's\n"
         "# ethics policy (full addresses can identify and locate users).\n";
  if (min_count > 1) {
    out << "# k-anonymity floor: prefixes with fewer than " << min_count
        << " addresses withheld (" << suppressed << " rows suppressed).\n";
  }
  out << "# prefix,address_count\n";
  for (const auto& row : rows) {
    if (row.address_count < min_count) continue;
    out << row.prefix.to_string() << ',' << row.address_count << '\n';
  }
}

std::vector<ReleaseEntry> read_release(std::istream& in) {
  std::vector<ReleaseEntry> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) {
      throw std::runtime_error("release row missing count: " + line);
    }
    const auto prefix = net::Ipv6Prefix::parse(
        std::string_view(line).substr(0, comma));
    const auto count =
        util::parse_dec_u64(std::string_view(line).substr(comma + 1));
    if (!prefix || prefix->length() != 48 || !count) {
      throw std::runtime_error("malformed release row: " + line);
    }
    rows.push_back({*prefix, *count});
  }
  return rows;
}

}  // namespace v6::hitlist
