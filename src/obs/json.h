// Dependency-free JSON, both ways: the one writer every emitter uses and
// the one reader every obs linter uses.
//
// JsonWriter builds the text of every JSON artifact the project emits:
// the metrics exposition, timelines, traces, the run report and the bench
// rows. It places separators itself, escapes every key and string the
// same way, and writes non-finite numbers as null, so no emitter formats
// JSON by hand.
//
// parse_json is one recursive-descent parser (RFC 8259 syntax: objects,
// arrays, strings with escapes, numbers, literals) that either builds a
// value tree or reports the first problem as "offset N: <problem>".
// Nesting is capped at 64 levels, so hostile input cannot exhaust the
// stack. The tree points into the parsed text and must not outlive it.
// Nothing is decoded: a string keeps its raw (still-escaped) text between
// the quotes and a number its literal. The linters compare member names
// and identities and read integers, which the raw text serves directly.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace v6::obs {

// Streaming writer. A value written at the top level (a scalar, or a
// container when it closes) ends with a newline, so a run of top-level
// values is JSON Lines. Calls must nest properly and every object member
// needs key() before its value; the writer does not check either.
class JsonWriter {
 public:
  // The whitespace a container puts between its members; nested
  // containers choose their own.
  enum class Layout : std::uint8_t {
    kCompact,  // {"a":1,"b":[2,3]}
    kSpaced,   // {"a": 1, "b": [2, 3]}
    // One member per line, indented `indent` spaces per enclosing kLines
    // container; the closing bracket on a line of its own, even when the
    // container is empty. Keys are followed by ": ".
    kLines,
  };

  explicit JsonWriter(std::size_t indent = 2) : indent_(indent) {}

  JsonWriter& begin_object(Layout layout = Layout::kCompact);
  JsonWriter& end_object();
  JsonWriter& begin_array(Layout layout = Layout::kCompact);
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  // Keys and strings share one escape: `"` and `\` and newline, tab and
  // carriage return by name, every other byte below 0x20 as \u00XX, and
  // all other bytes as they are.
  JsonWriter& string(std::string_view value);
  template <std::integral T>
  JsonWriter& integer(T value) {
    return scalar(std::to_string(value));
  }
  // JSON has no Inf or NaN: both number forms write a non-finite value as
  // null. number() prints format_double() text (obs/exposition.h):
  // integral values as integers, others as %.10g. number_exact() prints
  // %.17g, which round-trips every double.
  JsonWriter& number(double value);
  JsonWriter& number_exact(double value);
  JsonWriter& boolean(bool value);
  JsonWriter& null();

  const std::string& text() const noexcept { return out_; }
  std::string take() { return std::move(out_); }

 private:
  struct Frame {
    Layout layout;
    bool empty = true;
  };

  // Separator and indentation ahead of a key or an array element.
  void separate();
  void begin_value();  // separate() unless a key precedes the value
  void end_value();    // the newline after a top-level value
  JsonWriter& open(char bracket, Layout layout);
  JsonWriter& close(char bracket);
  JsonWriter& scalar(std::string_view text);
  void append_string(std::string_view s);

  std::string out_;
  std::vector<Frame> stack_;
  std::size_t indent_;
  std::size_t lines_depth_ = 0;  // open kLines containers
  bool keyed_ = false;           // a key is waiting for its value
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  // Raw text of a literal, a number or a string (without its quotes).
  std::string_view text;
  // Array elements, or object member values, in document order.
  std::vector<JsonValue> items;
  // Object member names, parallel to `items`; empty for arrays.
  std::vector<std::string_view> keys;

  // The first member named `key` of an object; nullptr if there is none
  // or this is not an object.
  const JsonValue* find(std::string_view key) const;
  // The value of a number written as an integer that fits 64 bits (no
  // fraction or exponent); nullopt for anything else.
  std::optional<std::int64_t> as_int() const;
  // as_int() of member `key`; nullopt when the member is missing.
  std::optional<std::int64_t> int_member(std::string_view key) const;
};

struct JsonParse {
  JsonValue root;  // meaningful only when `error` is empty
  std::optional<std::string> error;
};

JsonParse parse_json(std::string_view text);

}  // namespace v6::obs
