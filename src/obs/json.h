// Dependency-free JSON reader behind every obs linter: one
// recursive-descent parser (RFC 8259 syntax: objects, arrays, strings with
// escapes, numbers, literals) that either builds a value tree or reports
// the first problem as "offset N: <problem>". Nesting is capped at 64
// levels, so hostile input cannot exhaust the stack.
//
// The tree points into the parsed text and must not outlive it. Nothing
// is decoded: a string keeps its raw (still-escaped) text between the
// quotes and a number its literal. The linters compare member names and
// identities and read integers, which the raw text serves directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace v6::obs {

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
