// Machine-readable bench output, shared by every bench binary.
//
// BenchJson accumulates flat key/value metrics and writes them as one
// JSON object (a `BENCH_*.json` file in the working directory), one
// `"key": value` member per line, so CI can archive the perf trajectory
// run over run instead of scraping stdout tables. tools/bench_diff.sh
// gates committed figures on these files line by line:
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
// Header-only on top of obs::JsonWriter (obs/json.h), so microbenches
// that never build a simulated world (e.g. bench_kernels) need v6_obs for
// their rows but not the study stack; world-scaled benches stamp their
// scale via bench_common's scaled_bench_json().
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json.h"

namespace v6::bench {

class BenchJson {
 public:
  explicit BenchJson(const std::string& bench_name) {
    json_.begin_object(obs::JsonWriter::Layout::kLines);
    text("bench", bench_name);
  }

  // %.17g, so a committed figure reproduces to the last bit.
  void number(const std::string& key, double value) {
    json_.key(key).number_exact(value);
  }

  void integer(const std::string& key, std::uint64_t value) {
    json_.key(key).integer(value);
  }

  void boolean(const std::string& key, bool value) {
    json_.key(key).boolean(value);
  }

  void text(const std::string& key, const std::string& value) {
    json_.key(key).string(value);
  }

  // Writes the object to `path` and prints the path; returns false (and
  // reports on stderr) if the file cannot be written.
  bool write(const std::string& path) const {
    obs::JsonWriter done = json_;
    done.end_object();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs(done.text().c_str(), out);
    std::fclose(out);
    std::printf("[wrote %s]\n", path.c_str());
    return true;
  }

 private:
  obs::JsonWriter json_;  // the object so far, one member per line
};

}  // namespace v6::bench
