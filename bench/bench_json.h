// Machine-readable bench output, shared by every bench binary.
//
// BenchJson accumulates flat key/value metrics and writes them as one
// JSON object (a `BENCH_*.json` file in the working directory) so CI can
// archive the perf trajectory run over run instead of scraping stdout
// tables. tools/bench_diff.sh gates committed figures on these files:
// keys matching its volatile pattern (rates, seconds, speedups, byte
// footprints) may drift run to run, everything else must reproduce
// exactly.
//
// Key naming conventions (keep them consistent across BENCH files — the
// drift gate and trajectory charts key on them):
//   *_per_sec        — throughput rates (volatile)
//   *_seconds        — wall-clock timings (volatile)
//   *_speedup        — ratios between two timed variants (volatile)
//   *_bit_identical  — determinism/identity verdicts (stable; a flip is
//                      a regression, never noise)
//
// Header-only and dependency-free so microbenches that never build a
// simulated world (e.g. bench_kernels) can emit trajectories without
// linking the study stack; world-scaled benches stamp their scale via
// bench_common's scaled_bench_json().
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace v6::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) { text("bench", bench_name); }

  void number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    entries_.emplace_back(key, buf);
  }

  void integer(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }

  void boolean(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  void text(const std::string& key, const std::string& value) {
    // Appended: GCC 12 -O3 reports a false -Wrestrict on `"\"" + ...`.
    std::string quoted = "\"";
    quoted += escape(value);
    quoted += '"';
    entries_.emplace_back(key, std::move(quoted));
  }

  // Writes the object to `path` and prints the path; returns false (and
  // reports on stderr) if the file cannot be written.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("{\n", out);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "  \"%s\": %s%s\n", escape(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fputs("}\n", out);
    std::fclose(out);
    std::printf("[wrote %s]\n", path.c_str());
    return true;
  }

 private:
  static std::string escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size() + 2);
    for (const char c : raw) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace v6::bench
