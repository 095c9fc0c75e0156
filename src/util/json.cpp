#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/expect.hpp"

namespace madpipe::json {

void Writer::maybe_comma() {
  if (!scopes_.empty() && !pending_key_) {
    if (scopes_.back() & kHasItems) out_ += ',';
    scopes_.back() |= kHasItems;
  }
  pending_key_ = false;
}

void Writer::append_escaped(std::string_view raw) {
  out_ += '"';
  for (const char c : raw) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      case '\r': out_ += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

void Writer::begin_scope(char open, char kind) {
  maybe_comma();
  out_ += open;
  scopes_ += kind;
}

void Writer::end_scope(char close, char kind, const char* mismatch) {
  MP_EXPECT(!scopes_.empty() && (scopes_.back() & kArray) == kind, mismatch);
  out_ += close;
  scopes_.pop_back();
}

void Writer::begin_object() { begin_scope('{', 0); }

void Writer::end_object() {
  end_scope('}', 0, "end_object without matching begin_object");
}

void Writer::begin_array() { begin_scope('[', kArray); }

void Writer::end_array() {
  end_scope(']', kArray, "end_array without matching begin_array");
}

void Writer::key(std::string_view name) {
  MP_EXPECT(!scopes_.empty() && (scopes_.back() & kArray) == 0,
            "key() only valid inside an object");
  maybe_comma();
  append_escaped(name);
  out_ += ':';
  pending_key_ = true;
}

void Writer::value(std::string_view v) {
  maybe_comma();
  append_escaped(v);
}

void Writer::value(double v) {
  maybe_comma();
  if (std::isfinite(v)) {
    // The first of %.15g, %.16g, %.17g that reads back exactly. to_chars
    // in general format writes the bytes printf("%.*g") writes, and
    // from_chars reads what strtod reads, without the locale and the
    // format-string parsing.
    char buf[32];
    char* end = buf;
    for (const int precision : {15, 16, 17}) {
      end = std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, precision)
                .ptr;
      double back = 0.0;
      std::from_chars(buf, end, back);
      if (back == v) break;
    }
    out_.append(buf, end);
  } else {
    out_ += "null";  // JSON has no Inf/NaN literal
  }
}

void Writer::value(long long v) {
  maybe_comma();
  out_ += std::to_string(v);
}

void Writer::value(bool v) {
  maybe_comma();
  out_ += v ? "true" : "false";
}

void Writer::null() {
  maybe_comma();
  out_ += "null";
}

std::string Writer::str() const& {
  MP_EXPECT(scopes_.empty(), "document has unterminated scopes");
  return out_;
}

std::string Writer::str() && {
  MP_EXPECT(scopes_.empty(), "document has unterminated scopes");
  return std::move(out_);
}

Value Value::make_bool(bool v) {
  Value value;
  value.kind_ = Kind::Bool;
  value.bool_ = v;
  return value;
}

Value Value::make_number(double v) {
  Value value;
  value.kind_ = Kind::Number;
  value.number_ = v;
  return value;
}

Value Value::make_string(std::string v) {
  Value value;
  value.kind_ = Kind::String;
  value.string_ = std::move(v);
  return value;
}

Value Value::make_array(std::vector<Value> items) {
  Value value;
  value.kind_ = Kind::Array;
  value.array_ = std::move(items);
  return value;
}

Value Value::make_object(std::vector<Member> members) {
  Value value;
  value.kind_ = Kind::Object;
  value.object_ = std::move(members);
  return value;
}

bool Value::as_bool() const {
  MP_EXPECT(is_bool(), "JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  MP_EXPECT(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& Value::as_string() const {
  MP_EXPECT(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<Value>& Value::items() const {
  MP_EXPECT(is_array(), "JSON value is not an array");
  return array_;
}

const std::vector<Value::Member>& Value::members() const {
  MP_EXPECT(is_object(), "JSON value is not an object");
  return object_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (!is_object()) return nullptr;
  for (const Member& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

namespace {

/// Recursive-descent parser over a string_view; errors carry the byte
/// offset. Depth is capped so hostile inputs cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ParseResult run() {
    ParseResult result;
    skip_whitespace();
    if (!parse_value(result.value, 0)) {
      result.error = error_;
      return result;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      result.value = Value();
      result.error = at("trailing garbage after the document");
      return result;
    }
    return result;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::string at(const std::string& message) const {
    return "JSON parse error at offset " + std::to_string(pos_) + ": " +
           message;
  }

  bool fail(const std::string& message) {
    if (error_.empty()) error_ = at(message);
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool parse_literal(const char* literal) {
    const std::size_t length = std::strlen(literal);
    if (text_.substr(pos_, length) != literal) {
      return fail(std::string("expected '") + literal + "'");
    }
    pos_ += length;
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    switch (text_[pos_]) {
      case 'n': if (!parse_literal("null")) return false;
                out = Value(); return true;
      case 't': if (!parse_literal("true")) return false;
                out = Value::make_bool(true); return true;
      case 'f': if (!parse_literal("false")) return false;
                out = Value::make_bool(false); return true;
      case '"': return parse_string_value(out);
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) return fail("invalid number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      pos_ = start;
      return fail("leading zeros are not allowed");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return fail("digits required in exponent");
    }
    // from_chars and strtod both round correctly, so they agree whenever
    // from_chars succeeds. It refuses out-of-range values, where strtod
    // underflows to zero (1e-400 reads as 0) or overflows (an error here);
    // only that rare case pays for strtod's null-terminated copy.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range) {
      const std::string token(first, last);
      v = std::strtod(token.c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      pos_ = start;
      return fail("invalid number");
    }
    if (!std::isfinite(v)) {
      pos_ = start;
      return fail("invalid number");
    }
    out = Value::make_number(v);
    return true;
  }

  bool parse_string_value(Value& out) {
    std::string raw;
    if (!parse_string_raw(raw)) return false;
    out = Value::make_string(std::move(raw));
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (true) {
      // Append the run up to the next quote, escape or control character
      // in one call.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const unsigned char c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) { --pos_; return fail("raw control character in string"); }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return fail("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("invalid \\u escape");
          }
          // BMP only (no surrogate-pair assembly): the serve protocol never
          // needs astral-plane keys, and a lone surrogate is an error.
          if (code >= 0xD800 && code <= 0xDFFF) {
            return fail("surrogate code points are not supported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: --pos_; return fail("invalid escape");
      }
    }
  }

  bool parse_array(Value& out, int depth) {
    consume('[');
    std::vector<Value> items;
    skip_whitespace();
    if (consume(']')) { out = Value::make_array(std::move(items)); return true; }
    while (true) {
      Value item;
      skip_whitespace();
      if (!parse_value(item, depth + 1)) return false;
      items.push_back(std::move(item));
      skip_whitespace();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
    out = Value::make_array(std::move(items));
    return true;
  }

  bool parse_object(Value& out, int depth) {
    consume('{');
    std::vector<Value::Member> members;
    members.reserve(8);  // request and profile-layer objects have ≤ 8 keys
    skip_whitespace();
    if (consume('}')) {
      out = Value::make_object(std::move(members));
      return true;
    }
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string_raw(key)) return false;
      for (const Value::Member& member : members) {
        if (member.first == key) return fail("duplicate key '" + key + "'");
      }
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' after object key");
      Value value;
      skip_whitespace();
      if (!parse_value(value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
    out = Value::make_object(std::move(members));
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

ParseResult parse(std::string_view text) { return Parser(text).run(); }

}  // namespace madpipe::json
