#pragma once

/// \file json.hpp
/// The project's one JSON codec (RFC 8259). Every JSON reader — campaign
/// cell records, shape-check records, serve requests, BENCH_*.json
/// baselines — pulls values through json::Reader; every writer escapes
/// strings with json::escape and prints doubles with json::format_number.
///
/// The reader is a strict pull parser over a string_view: the caller
/// walks the document in the order it expects, so a failure leaves what
/// was read before it in place (serve echoes the id scanned before a bad
/// field) and nothing is built that the caller did not ask for. Strict
/// means the RFC grammar only: no NaN/Infinity, hex, leading '+' or '.',
/// trailing commas or raw control characters in strings; every escape,
/// \uXXXX surrogate pairs included, decodes to UTF-8. Bytes >= 0x80 pass
/// through unvalidated.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace coredis::json {

/// Malformed or out-of-range input: what() reads "<reason> at byte <N>".
class Error : public std::runtime_error {
 public:
  Error(const std::string& reason, std::size_t offset);
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Read an object, calling `on_member(key)` per member in text order;
  /// the callback must read (or skip) the member's value.
  template <class OnMember>
  void object(OnMember&& on_member) {
    expect('{', "expected an object");
    for (bool first = true; more('}', first); first = false) {
      const std::string key = string();
      expect(':', "expected ':'");
      on_member(key);
    }
  }

  /// Read an array, calling `on_element()` per element, which it must read.
  template <class OnElement>
  void array(OnElement&& on_element) {
    expect('[', "expected an array");
    for (bool first = true; more(']', first); first = false) on_element();
  }

  [[nodiscard]] std::string string();
  /// A plain non-negative integer (no sign, fraction or exponent); values
  /// above `max` fail "out of range" instead of wrapping.
  [[nodiscard]] std::uint64_t u64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
  /// A JSON number via std::from_chars: locale-free, and bit-exact for
  /// the %.17g text format_number writes.
  [[nodiscard]] double number();
  [[nodiscard]] bool boolean();
  /// Validate and step over one value of any type; returns its raw bytes.
  std::string_view skip();
  /// Require that only whitespace remains.
  void finish();
  /// Throw Error(reason) at the current position.
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  void skip_space();
  char peek();  ///< next non-space byte; fails at end of input
  void expect(char c, const char* reason);
  bool more(char close, bool first);
  [[nodiscard]] bool at_delimiter() const;
  std::uint32_t hex4();
  std::string_view number_text();
  bool literal(std::string_view word);
  void skip_value(int depth);

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The body of a JSON string literal for `text`: `"` and `\` are
/// backslash-escaped, control characters become \u00XX.
[[nodiscard]] std::string escape(std::string_view text);

/// `value` as %.17g in the C locale, so Reader::number() reads back the
/// same bits. Throws std::invalid_argument for NaN and infinities.
[[nodiscard]] std::string format_number(double value);

}  // namespace coredis::json
