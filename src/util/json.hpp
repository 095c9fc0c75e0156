// Minimal JSON reader/writer. The writer streams plans / schedules /
// experiment results for external plotting; the reader (added for the
// plan-serving protocol) parses request documents into a small recursive
// `Value` — just enough JSON to drive `madpipe serve`, with strict errors
// instead of extensions.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace madpipe::json {

/// Streaming JSON writer with explicit structure calls.
///
///   Writer w;
///   w.begin_object();
///   w.key("period"); w.value(0.125);
///   w.key("stages"); w.begin_array(); ... w.end_array();
///   w.end_object();
///   std::string out = w.str();
class Writer {
 public:
  Writer() { out_.reserve(kInitialCapacity); }

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(std::string_view name);
  void value(std::string_view v);
  /// Keeps a literal from taking the pointer-to-bool conversion.
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(long long v);
  void value(int v) { value(static_cast<long long>(v)); }
  void value(std::size_t v) { value(static_cast<long long>(v)); }
  void value(bool v);
  void null();

  /// Final document; valid once all begun scopes are ended. The rvalue
  /// overload (`std::move(w).str()`) moves the document out, no copy.
  std::string str() const&;
  std::string str() &&;

 private:
  /// Room for a serve response, so a typical document allocates once.
  static constexpr std::size_t kInitialCapacity = 512;
  /// Bits of a scope byte: an array (else an object), and has an item.
  static constexpr char kArray = 1;
  static constexpr char kHasItems = 2;

  void begin_scope(char open, char kind);
  void end_scope(char close, char kind, const char* mismatch);
  void maybe_comma();
  void append_escaped(std::string_view raw);

  std::string out_;
  /// One byte per open scope, innermost last. The string keeps the first
  /// 15 levels in its inline buffer, so nesting does not allocate.
  std::string scopes_;
  bool pending_key_ = false;
};

/// A parsed JSON value. Objects preserve insertion order (a vector of
/// key/value pairs, not a map): serve responses echo request fields back in
/// a stable order and duplicate keys are a parse error anyway.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, Value>;

  Value() = default;
  static Value make_bool(bool v);
  static Value make_number(double v);
  static Value make_string(std::string v);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<Member> members);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }
  bool is_object() const noexcept { return kind_ == Kind::Object; }

  /// Typed accessors; calling the wrong one throws ContractViolation.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;    ///< array elements
  const std::vector<Member>& members() const; ///< object key/value pairs

  /// Object member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const noexcept;

  /// Convenience lookups with defaults, for optional request fields.
  double number_or(std::string_view key, double fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Outcome of `parse`: either a value or a position-annotated error.
struct ParseResult {
  Value value;
  std::string error;  ///< empty on success

  bool ok() const noexcept { return error.empty(); }
};

/// Parse one JSON document (trailing whitespace allowed, trailing garbage is
/// an error). Strict: no comments, no trailing commas, duplicate object keys
/// rejected, nesting depth capped. Never throws on malformed input.
ParseResult parse(std::string_view text);

}  // namespace madpipe::json
