#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace coredis::json {

namespace {

/// Containers nested deeper than this are refused, bounding skip()'s
/// recursion on hostile input; no file this project reads nests past 3.
constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_space(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

void append_utf8(std::string& out, std::uint32_t code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
    return;
  }
  const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out.push_back(static_cast<char>(((0xFF << (7 - tail)) & 0xFF) |
                                  (code >> (6 * tail))));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6)
    out.push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
}

}  // namespace

Error::Error(const std::string& reason, std::size_t offset)
    : std::runtime_error(reason + " at byte " + std::to_string(offset)),
      offset_(offset) {}

void Reader::fail(const std::string& reason) const { throw Error(reason, pos_); }

void Reader::skip_space() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
}

char Reader::peek() {
  skip_space();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void Reader::expect(char c, const char* reason) {
  if (peek() != c) fail(reason);
  ++pos_;
}

bool Reader::more(char close, bool first) {
  const char c = peek();
  if (c == close || (!first && c != ',')) {
    expect(close, close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    return false;
  }
  if (!first) ++pos_;
  return true;
}

bool Reader::at_delimiter() const {
  if (pos_ == text_.size()) return true;
  const char c = text_[pos_];
  return c == ',' || c == '}' || c == ']' || is_space(c);
}

std::uint32_t Reader::hex4() {
  std::uint32_t code = 0;
  const char* begin = text_.data() + pos_;
  const char* end = begin + std::min<std::size_t>(4, text_.size() - pos_);
  if (std::from_chars(begin, end, code, 16).ptr != begin + 4)
    fail("invalid \\u escape");
  pos_ += 4;
  return code;
}

std::string Reader::string() {
  if (peek() != '"') fail("expected a string");
  const std::size_t start = pos_++;
  std::string out;
  for (;;) {
    // Copy the run of plain bytes up to the next quote, escape or end.
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20)
      ++pos_;
    out.append(text_.substr(run, pos_ - run));
    if (pos_ >= text_.size()) throw Error("unterminated string", start);
    if (text_[pos_] == '"') break;
    if (text_[pos_] != '\\') fail("control character in string");
    const std::size_t escape_at = pos_++;
    if (pos_ >= text_.size()) throw Error("unterminated string", start);
    static constexpr std::string_view kNamed = "\"\\/bfnrt";
    const char kind = text_[pos_++];
    if (const std::size_t named = kNamed.find(kind); named != kNamed.npos) {
      out.push_back("\"\\/\b\f\n\r\t"[named]);
      continue;
    }
    if (kind != 'u') throw Error("invalid escape", escape_at);
    std::uint32_t code = hex4();
    if (code >= 0xD800 && code <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;  // a high surrogate must pair with a low one
      const std::uint32_t low = hex4();
      if (low >= 0xDC00 && low <= 0xDFFF)
        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    if (code >= 0xD800 && code <= 0xDFFF)
      throw Error("lone surrogate in \\u escape", escape_at);
    append_utf8(out, code);
  }
  ++pos_;
  return out;
}

/// The bytes of one number per the RFC grammar
/// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, which must end at a
/// delimiter — so "0x10", "01" and "1.5.2" fail here, not one token later.
std::string_view Reader::number_text() {
  peek();
  const std::size_t start = pos_;
  const auto at = [&](std::string_view set) {
    return pos_ < text_.size() && set.find(text_[pos_]) != set.npos;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  if (at("-")) ++pos_;
  bool ok = true;
  if (at("0")) ++pos_;
  else ok = digits();
  if (ok && at(".")) {
    ++pos_;
    ok = digits();
  }
  if (ok && at("eE")) {
    ++pos_;
    if (at("+-")) ++pos_;
    ok = digits();
  }
  if (!ok || !at_delimiter())
    throw Error(pos_ == start ? "expected a number" : "malformed number",
                start);
  return text_.substr(start, pos_ - start);
}

double Reader::number() {
  const std::string_view text = number_text();
  double value = 0.0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
      std::errc())
    throw Error("out of range", pos_ - text.size());
  return value;
}

std::uint64_t Reader::u64(std::uint64_t max) {
  const std::string_view text = number_text();
  const std::size_t start = pos_ - text.size();
  if (text.find_first_of("-.eE") != std::string_view::npos)
    throw Error("expected an unsigned integer", start);
  std::uint64_t value = 0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
          std::errc() ||
      value > max)
    throw Error("out of range", start);
  return value;
}

bool Reader::literal(std::string_view word) {
  const std::size_t start = pos_;
  if (text_.substr(pos_, word.size()) == word) pos_ += word.size();
  if (pos_ == start || !at_delimiter())
    throw Error(word == "null" ? "expected null" : "expected true or false",
                start);
  return word == "true";
}

bool Reader::boolean() { return literal(peek() == 't' ? "true" : "false"); }

std::string_view Reader::skip() {
  peek();
  const std::size_t start = pos_;
  skip_value(0);
  return text_.substr(start, pos_ - start);
}

void Reader::skip_value(int depth) {
  const char c = peek();
  if (depth >= kMaxDepth) fail("nesting too deep");
  if (c == '{')
    object([&](const std::string&) { skip_value(depth + 1); });
  else if (c == '[')
    array([&] { skip_value(depth + 1); });
  else if (c == '"')
    (void)string();
  else if (c == 't' || c == 'f' || c == 'n')
    (void)literal(c == 't' ? "true" : c == 'f' ? "false" : "null");
  else if (c == '-' || is_digit(c))
    (void)number_text();
  else
    fail("expected a value");
}

void Reader::finish() {
  skip_space();
  if (pos_ != text_.size()) fail("trailing characters");
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string format_number(double value) {
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite number has no JSON form");
  char buffer[32];
  const std::to_chars_result written = std::to_chars(
      buffer, buffer + sizeof buffer, value, std::chars_format::general, 17);
  return std::string(buffer, written.ptr);
}

}  // namespace coredis::json
