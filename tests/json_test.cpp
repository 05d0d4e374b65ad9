/// util/json tests: the strict reader (every value type, RFC string
/// escapes and number grammar, range checks, error offsets, raw spans),
/// the writer (escape, %.17g round-trip, refusal of non-finite values),
/// and a seeded mutation fuzz battery over every JSON input the project
/// reads — serve requests, campaign cell records, shape-check records and
/// a committed BENCH_*.json — asserting that each mutant either parses or
/// fails with a named error, and that no consumer accepts text the codec
/// itself calls malformed.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/report.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace coredis::json {
namespace {

std::string error_of(std::string_view text) {
  try {
    Reader in(text);
    (void)in.skip();
    in.finish();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

std::string string_of(std::string_view text) {
  Reader in(text);
  std::string value = in.string();
  in.finish();
  return value;
}

double number_of(std::string_view text) {
  Reader in(text);
  const double value = in.number();
  in.finish();
  return value;
}

TEST(JsonReader, PullsEveryValueType) {
  Reader in(R"( {"s":"x","n":-2.5e3,"u":42,"b":false,"t":true,)"
            R"("a":[1,[2],{}],"z":null} )");
  std::string s;
  double n = 0.0;
  std::uint64_t u = 0;
  bool b = true, t = false;
  std::vector<std::string> skipped;
  in.object([&](const std::string& key) {
    if (key == "s") s = in.string();
    else if (key == "n") n = in.number();
    else if (key == "u") u = in.u64();
    else if (key == "b") b = in.boolean();
    else if (key == "t") t = in.boolean();
    else skipped.emplace_back(in.skip());
  });
  in.finish();
  EXPECT_EQ(s, "x");
  EXPECT_EQ(n, -2500.0);
  EXPECT_EQ(u, 42u);
  EXPECT_FALSE(b);
  EXPECT_TRUE(t);
  EXPECT_EQ(skipped, (std::vector<std::string>{"[1,[2],{}]", "null"}));

  std::vector<std::uint64_t> items;
  Reader list("[ 3 , 1,4 ]");
  list.array([&] { items.push_back(list.u64()); });
  list.finish();
  EXPECT_EQ(items, (std::vector<std::uint64_t>{3, 1, 4}));
  Reader empty("[]");
  empty.array([] { FAIL() << "an empty array has no elements"; });
}

TEST(JsonReader, DecodesEveryStringEscape) {
  EXPECT_EQ(string_of(R"("a\"b\\c\/d\be\ff\ng\rh\ti")"),
            "a\"b\\c/d\be\ff\ng\rh\ti");
  EXPECT_EQ(string_of(R"("\u0041\u00e9\u20AC")"), "A\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(string_of(R"("\ud83d\ude00")"), "\xF0\x9F\x98\x80");
  EXPECT_EQ(string_of(R"("\u0000")"), std::string(1, '\0'));
  EXPECT_EQ(string_of("\"caf\xC3\xA9\""), "caf\xC3\xA9");  // raw UTF-8 passes

  EXPECT_EQ(error_of(R"("\ud800")"), "lone surrogate in \\u escape at byte 1");
  EXPECT_EQ(error_of(R"("\udc00")"), "lone surrogate in \\u escape at byte 1");
  EXPECT_EQ(error_of(R"("x\ud800\n")"),
            "lone surrogate in \\u escape at byte 2");
  EXPECT_EQ(error_of(R"("\x")"), "invalid escape at byte 1");
  EXPECT_EQ(error_of(R"("\u12g4")"), "invalid \\u escape at byte 3");
  EXPECT_EQ(error_of("\"a\tb\""), "control character in string at byte 2");
  EXPECT_EQ(error_of(R"("abc)"), "unterminated string at byte 0");
  EXPECT_EQ(error_of(R"("abc\)"), "unterminated string at byte 0");
}

TEST(JsonReader, NumbersFollowTheJsonGrammar) {
  EXPECT_EQ(number_of("0"), 0.0);
  EXPECT_TRUE(std::signbit(number_of("-0")));
  EXPECT_EQ(number_of("1.5"), 1.5);
  EXPECT_EQ(number_of("1e3"), 1000.0);
  EXPECT_EQ(number_of("1E-3"), 0.001);
  EXPECT_EQ(number_of("-2.5e+10"), -2.5e10);
  EXPECT_EQ(number_of("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  for (const char* bad : {"inf", "-inf", "nan", "NaN", "Infinity", "0x10",
                          "+1", ".5", "1.", "01", "-01", "1e", "1e+", "-",
                          "--1", "1.5.2", "0b1", "1f", "\"1\"",
                          "true1", "nul", ""}) {
    Reader in(bad);
    EXPECT_THROW((void)in.number(), Error) << bad;
  }
  EXPECT_EQ(error_of("[1.]"), "malformed number at byte 1");
  EXPECT_EQ(error_of("[.5]"), "expected a value at byte 1");
  EXPECT_EQ(error_of("1e999"), "");  // skip() checks the grammar only...
  Reader huge("1e999");
  EXPECT_THROW((void)huge.number(), Error);  // ...number() the range too
}

TEST(JsonReader, UnsignedIntegersAreRangeChecked) {
  Reader max("18446744073709551615");
  EXPECT_EQ(max.u64(), std::numeric_limits<std::uint64_t>::max());
  for (const char* wraps : {"18446744073709551616", "18446744073709551617",
                            "99999999999999999999999"}) {
    Reader in(wraps);
    try {
      (void)in.u64();
      FAIL() << wraps << " must not wrap";
    } catch (const Error& error) {
      EXPECT_STREQ(error.what(), "out of range at byte 0");
    }
  }
  Reader capped("2147483648");
  EXPECT_THROW((void)capped.u64(std::numeric_limits<int>::max()), Error);
  for (const char* bad : {"-1", "1.0", "1e3", "-0"}) {
    Reader in(bad);
    try {
      (void)in.u64();
      FAIL() << bad;
    } catch (const Error& error) {
      EXPECT_STREQ(error.what(), "expected an unsigned integer at byte 0");
    }
  }
}

TEST(JsonReader, StructuralErrorsCarryTheirByteOffset) {
  EXPECT_EQ(error_of(R"({"a":1,})"), "expected a string at byte 7");
  EXPECT_EQ(error_of(R"({"a" 1})"), "expected ':' at byte 5");
  EXPECT_EQ(error_of(R"({"a":1 "b":2})"), "expected ',' or '}' at byte 7");
  EXPECT_EQ(error_of("[1 2]"), "expected ',' or ']' at byte 3");
  EXPECT_EQ(error_of("[1,2"), "unexpected end of input at byte 4");
  EXPECT_EQ(error_of("{} x"), "trailing characters at byte 3");
  EXPECT_EQ(error_of("tru"), "expected true or false at byte 0");
  EXPECT_EQ(error_of(""), "unexpected end of input at byte 0");
  EXPECT_EQ(error_of(R"({"a":)"), "unexpected end of input at byte 5");
  EXPECT_EQ(error_of("\v1"), "expected a value at byte 0");  // not JSON space
  EXPECT_EQ(error_of(std::string(100, '[')), "nesting too deep at byte 64");
  EXPECT_EQ(error_of(" \t\r\n[ {\"a\" : [ ] } ]\n"), "");
  Reader in("[1]");
  EXPECT_THROW(in.object([](const std::string&) {}), Error);
}

TEST(JsonReader, SkipReturnsTheRawSpan) {
  const std::string text = R"({"keep": { "x" : [1, "two"] } , "n": 5})";
  Reader in(text);
  std::string_view kept;
  in.object([&](const std::string& key) {
    const std::string_view span = in.skip();
    if (key == "keep") kept = span;
  });
  in.finish();
  EXPECT_EQ(kept, R"({ "x" : [1, "two"] })");
  EXPECT_EQ(kept.data(), text.data() + 9);  // a view into the input
}

TEST(JsonWriter, EscapeKeepsItsOutputBytesAndRoundTrips) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("x\ny\tz\x01"), "x\\u000ay\\u0009z\\u0001");
  EXPECT_EQ(escape("caf\xC3\xA9/"), "caf\xC3\xA9/");
  std::string every;
  for (int c = 1; c < 256; ++c) every.push_back(static_cast<char>(c));
  EXPECT_EQ(string_of("\"" + escape(every) + "\""), every);
}

TEST(JsonWriter, NumbersRoundTripBitExactlyAsPercent17g) {
  std::mt19937_64 rng(7);
  std::vector<double> values = {0.0, -0.0, 1.0, 0.1, 1e300, -1e-300,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                21004989.144187625};
  for (int i = 0; i < 2000; ++i) {
    double value = 0.0;
    const std::uint64_t bits = rng();
    std::memcpy(&value, &bits, sizeof value);
    if (std::isfinite(value)) values.push_back(value);
  }
  for (const double value : values) {
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", value);
    const std::string text = format_number(value);
    EXPECT_EQ(text, expected);
    const double back = number_of(text);
    EXPECT_EQ(std::memcmp(&back, &value, sizeof value), 0) << text;
  }
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW((void)format_number(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz battery
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFuzzSeed = 20261018;

/// Inserted bytes favour JSON's own alphabet, so mutants probe the
/// grammar's edges rather than only its first byte.
constexpr std::string_view kAlphabet =
    "{}[],:\"\\/0123456789-+.eEutrfalsn \t\x01\x7f\x80\xff";

/// 1-3 random edits: bit flip, insertion, deletion or truncation. Line
/// corpora keep one line (a newline would split the mutant in two).
std::string mutate(std::string text, std::mt19937_64& rng, bool one_line) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng() % text.size();
    switch (rng() % 4) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
        break;
      case 1:
        text.insert(at, 1, kAlphabet[rng() % kAlphabet.size()]);
        break;
      case 2:
        text.erase(at, 1);
        break;
      default:
        text.resize(at);
        break;
    }
  }
  if (one_line)
    for (char& c : text)
      if (c == '\n') c = ' ';
  return text;
}

/// The codec's own verdict; a refusal must point inside the text.
bool well_formed(std::string_view text) {
  try {
    Reader in(text);
    (void)in.skip();
    in.finish();
    return true;
  } catch (const Error& error) {
    EXPECT_LE(error.offset(), text.size());
    return false;
  }
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

std::filesystem::path fuzz_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("coredis_json_fuzz_" + tag + ".jsonl");
}

TEST(JsonFuzz, ServeRequests) {
  const std::vector<std::string> seeds = {
      R"({"id":7,"op":"what_if","tenant":"a\tb\u00e9\ud83d\ude00",)"
      R"("scenario":"n = 6\np = 24; mtbf_years = 5","configs":"ig_local",)"
      R"("rep":3})",
      R"({ "id" : 8 , "op" : "admit" , "scenario" : "n = 6; p = 24" ,)"
      R"json( "policy" : "bandit(window=5)" , "limit_days" : 2.5e1 })json",
      R"({"id":18446744073709551615,"op":"ping"})",
      R"({"id":1,"op":"stats","tenant":"t\"q\\\/"})",
  };
  std::mt19937_64 rng(kFuzzSeed);
  std::size_t accepted = 0;
  for (int i = 0; i < 8000; ++i) {
    const std::string line =
        mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng, false);
    serve::Request request;
    std::string error;
    if (serve::parse_request(line, request, error)) {
      ++accepted;
      EXPECT_TRUE(well_formed(line)) << "accepted malformed: " << line;
    } else {
      EXPECT_FALSE(error.empty()) << line;
      (void)well_formed(line);
    }
  }
  EXPECT_GT(accepted, 0u) << "the battery must exercise the accept path";
}

TEST(JsonFuzz, CampaignCellRecords) {
  const exp::Campaign campaign = exp::parse_campaign(
      "n = 6\np = 24\nruns = 2\nseed = 7\nmtbf_years = 2, 50\n"
      "configs = baseline, ig_local\n");
  const auto path = fuzz_path("cells");
  std::filesystem::remove(path);
  exp::GridRunOptions options;
  options.jsonl_path = path.string();
  (void)exp::run_campaign(campaign, options);
  const std::vector<std::string> lines = lines_of(read_text(path));
  ASSERT_EQ(lines.size(), 1 + campaign.cells());

  std::mt19937_64 rng(kFuzzSeed + 1);
  std::size_t accepted = 0;
  for (int i = 0; i < 3500; ++i) {
    // Cells 0..k-1 intact, then a mutant of cell k as the last line.
    const std::size_t k = static_cast<std::size_t>(i) % 3;
    std::string text;
    for (std::size_t l = 0; l <= k; ++l) text += lines[l] + '\n';
    const std::string mutant = mutate(lines[k + 1], rng, true);
    write_text(path, text + mutant + '\n');
    exp::JsonlCoverage coverage;
    (void)exp::summarize_jsonl(campaign, path.string(), &coverage);
    if (coverage.cells_present == k + 1) {
      ++accepted;
      EXPECT_TRUE(well_formed(mutant)) << "accepted malformed: " << mutant;
    } else {
      EXPECT_EQ(coverage.cells_present, k) << mutant;
      EXPECT_TRUE(coverage.dropped_corrupt_tail) << mutant;
      (void)well_formed(mutant);
    }
  }
  EXPECT_GT(accepted, 0u) << "some mutants (digit flips) stay valid";
  std::filesystem::remove(path);
}

TEST(JsonFuzz, CheckRecords) {
  const auto path = fuzz_path("checks");
  std::filesystem::remove(path);
  exp::CheckReport report;
  report.figure = "fig99_demo";
  report.title = "Demo \"quoted\" panel";
  report.command = "fig99_demo --runs 2 --scenario a\\b.txt";
  report.checks = {{"gain\nholds", true, "x=1"}, {"plain", false, ""}};
  exp::append_check_records(path.string(), report);
  const std::vector<std::string> seeds = lines_of(read_text(path));
  ASSERT_EQ(seeds.size(), 2u);

  std::mt19937_64 rng(kFuzzSeed + 2);
  for (int i = 0; i < 3500; ++i) {
    const std::string mutant =
        mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng, true);
    write_text(path, mutant + '\n');
    try {
      (void)exp::load_check_records(path.string());
      EXPECT_TRUE(mutant.empty() || well_formed(mutant))
          << "accepted malformed: " << mutant;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("malformed check record"),
                std::string::npos)
          << error.what();
      (void)well_formed(mutant);
    }
  }
  std::filesystem::remove(path);
}

TEST(JsonFuzz, CommittedBenchBaseline) {
  const std::string seed =
      read_text(std::string(COREDIS_SOURCE_DIR) + "/BENCH_PR13.json");
  ASSERT_FALSE(seed.empty());
  ASSERT_NO_THROW((void)exp::parse_bench_baseline(seed, "BENCH_PR13"));
  std::mt19937_64 rng(kFuzzSeed + 3);
  for (int i = 0; i < 5000; ++i) {
    const std::string mutant = mutate(seed, rng, false);
    try {
      (void)exp::parse_bench_baseline(mutant, "fuzz");
      EXPECT_TRUE(well_formed(mutant)) << "accepted malformed mutant " << i;
    } catch (const Error& error) {
      EXPECT_LE(error.offset(), mutant.size());
      (void)well_formed(mutant);
    }
  }
}

}  // namespace
}  // namespace coredis::json
