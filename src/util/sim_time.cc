#include "util/sim_time.h"

namespace v6::util {

std::string format_duration(SimDuration d) {
  if (d < 0) {
    // Appended, not `"-" + string`: GCC 12 -O3 reports a false -Wrestrict
    // on the operator+ form.
    std::string out = "-";
    out += format_duration(-d);
    return out;
  }
  if (d < 2 * kMinute) return std::to_string(d) + "s";
  if (d < 2 * kHour) return std::to_string(d / kMinute) + "m";
  if (d < 2 * kDay) return std::to_string(d / kHour) + "h";
  if (d < 2 * kWeek) return std::to_string(d / kDay) + "d";
  return std::to_string(d / kWeek) + "w";
}

}  // namespace v6::util
