#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/exposition.h"

namespace v6::obs {

void JsonWriter::separate() {
  Frame& frame = stack_.back();
  if (!frame.empty) out_ += frame.layout == Layout::kSpaced ? ", " : ",";
  frame.empty = false;
  if (frame.layout == Layout::kLines) {
    out_.push_back('\n');
    out_.append(lines_depth_ * indent_, ' ');
  }
}

void JsonWriter::begin_value() {
  if (keyed_) {
    keyed_ = false;
  } else if (!stack_.empty()) {
    separate();
  }
}

void JsonWriter::end_value() {
  if (stack_.empty()) out_.push_back('\n');
}

JsonWriter& JsonWriter::open(char bracket, Layout layout) {
  begin_value();
  out_.push_back(bracket);
  stack_.push_back(Frame{layout});
  if (layout == Layout::kLines) ++lines_depth_;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (stack_.back().layout == Layout::kLines) {
    --lines_depth_;
    out_.push_back('\n');
    out_.append(lines_depth_ * indent_, ' ');
  }
  stack_.pop_back();
  out_.push_back(bracket);
  end_value();
  return *this;
}

JsonWriter& JsonWriter::begin_object(Layout layout) {
  return open('{', layout);
}

JsonWriter& JsonWriter::end_object() { return close('}'); }

JsonWriter& JsonWriter::begin_array(Layout layout) {
  return open('[', layout);
}

JsonWriter& JsonWriter::end_array() { return close(']'); }

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  append_string(name);
  out_ += stack_.back().layout == Layout::kCompact ? ":" : ": ";
  keyed_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(std::string_view value) {
  begin_value();
  append_string(value);
  end_value();
  return *this;
}

JsonWriter& JsonWriter::number(double value) {
  return std::isfinite(value) ? scalar(detail::format_double(value)) : null();
}

JsonWriter& JsonWriter::number_exact(double value) {
  if (!std::isfinite(value)) return null();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return scalar(buf);
}

JsonWriter& JsonWriter::boolean(bool value) {
  return scalar(value ? "true" : "false");
}

JsonWriter& JsonWriter::null() { return scalar("null"); }

JsonWriter& JsonWriter::scalar(std::string_view text) {
  begin_value();
  out_ += text;
  end_value();
  return *this;
}

void JsonWriter::append_string(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParse parse() {
    JsonParse out;
    skip_ws();
    if (value(out.root)) {
      skip_ws();
      if (pos_ == text_.size()) return out;
      fail_at(pos_, "trailing data after value");
    }
    out.error = "offset " + std::to_string(error_pos_) + ": " + error_;
    return out;
  }

 private:
  using Kind = JsonValue::Kind;
  static constexpr int kMaxDepth = 64;

  // Records the first failure only: later ones are fallout from it.
  bool fail_at(std::size_t pos, std::string_view what) {
    if (error_.empty()) {
      error_pos_ = pos;
      error_ = std::string(what);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word, Kind kind, JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail_at(pos_, "invalid literal");
    }
    out.kind = kind;
    out.text = word;
    pos_ += word.size();
    return true;
  }

  // Sets `out` to the raw text between the quotes.
  bool string(std::string_view& out) {
    const std::size_t start = ++pos_;  // past the opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c < 0x20) return fail_at(pos_, "raw control char in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail_at(pos_, "dangling escape");
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return fail_at(pos_, "invalid \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return fail_at(pos_, "invalid escape");
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail_at(pos_, "unterminated string");
    out = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > first;
    };
    const std::size_t int_start = pos_;
    if (!digits()) return fail_at(start, "invalid number");
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid).
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      return fail_at(start, "invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail_at(start, "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return fail_at(start, "invalid number");
    }
    out.kind = Kind::kNumber;
    out.text = text_.substr(start, pos_ - start);
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth_ > kMaxDepth) return fail_at(pos_, "nesting too deep");
    bool ok = false;
    if (pos_ >= text_.size()) {
      ok = fail_at(pos_, "expected value");
    } else {
      switch (text_[pos_]) {
        case '{': ok = object(out); break;
        case '[': ok = array(out); break;
        case '"':
          out.kind = Kind::kString;
          ok = string(out.text);
          break;
        case 't': ok = literal("true", Kind::kBool, out); break;
        case 'f': ok = literal("false", Kind::kBool, out); break;
        case 'n': ok = literal("null", Kind::kNull, out); break;
        default: ok = number(out); break;
      }
    }
    --depth_;
    return ok;
  }

  bool object(JsonValue& out) {
    out.kind = Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail_at(pos_, "expected object key");
      }
      if (!string(out.keys.emplace_back())) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail_at(pos_, "expected ':'");
      }
      ++pos_;
      skip_ws();
      if (!value(out.items.emplace_back())) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail_at(pos_, "expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.kind = Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value(out.items.emplace_back())) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail_at(pos_, "expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::size_t error_pos_ = 0;
  std::string error_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == key) return &items[i];
  }
  return nullptr;
}

std::optional<std::int64_t> JsonValue::as_int() const {
  if (kind != Kind::kNumber) return std::nullopt;
  std::int64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return parsed;
}

std::optional<std::int64_t> JsonValue::int_member(std::string_view key) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_int() : std::nullopt;
}

JsonParse parse_json(std::string_view text) { return Parser(text).parse(); }

}  // namespace v6::obs
