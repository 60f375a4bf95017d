// Snapshot exposition: Prometheus text format and JSON.
//
// render() turns one Snapshot into a byte-deterministic string (samples
// arrive pre-sorted from Registry::snapshot()):
//   * kPrometheus — the text exposition format scrapers ingest: # HELP /
//     # TYPE headers, `name{label="v"} value` samples, histograms as
//     cumulative `_bucket{le=...}` + `_sum` + `_count`. Spans have no
//     Prometheus representation and are omitted.
//   * kJson — the full snapshot including spans, for dashboards and jq,
//     written by obs::JsonWriter (obs/json.h) like every JSON artifact.
//
// lint_prometheus() is the promtool-style validator: a hand-rolled,
// dependency-free line checker used by tests and the CLI's lint-metrics
// subcommand so CI can assert that what we emit actually parses.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "obs/snapshot.h"

namespace v6::obs {

namespace detail {

// Shared rendering primitives, also used by obs/json.cc and the timeline
// exporters so every exposition path formats numbers and series names
// identically.

// Deterministic number text: integral doubles print as integers,
// everything else as %.10g. Locale-independent.
std::string format_double(double v);

// `{a="x",b="y"}` (empty string when no labels). `extra` appends one more
// pair (the histogram `le` label) without copying the label set.
std::string label_block(const Labels& labels, std::string_view extra_key = {},
                        std::string_view extra_value = {});

}  // namespace detail

enum class ExpositionFormat : std::uint8_t { kPrometheus, kJson };

// "prom"/"prometheus"/"text" or "json" (case-sensitive); nullopt otherwise.
std::optional<ExpositionFormat> parse_format(std::string_view name);

// File suffix convention for a format ("prom" / "json").
std::string_view format_suffix(ExpositionFormat format);

std::string render(const Snapshot& snapshot, ExpositionFormat format);

// Receives rendered snapshots (e.g. writes them to a file, a socket, a
// test vector). Study's --metrics-out plumbing is one of these.
using SnapshotSink =
    std::function<void(const Snapshot& snapshot, std::string_view rendered)>;

// Validates Prometheus text exposition: every line must be a well-formed
// comment (# HELP name text / # TYPE name {counter,gauge,histogram,
// summary,untyped}), a sample (name[{labels}] value [timestamp]) with a
// legal metric name, label syntax, and numeric value, and TYPE lines must
// precede their family's samples and appear at most once. Label values
// must use the exposition escapes exactly (`\\`, `\"`, `\n` — anything
// else after a backslash is rejected), and two samples with the same
// (name, label set) — labels compared as a set — are a duplicate series.
// Returns nullopt on success, else "line N: <problem>".
std::optional<std::string> lint_prometheus(std::string_view text);

}  // namespace v6::obs
