#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace coredis {

CliParser::CliParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  describe("help", "print this message and exit");
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("positional arguments are not supported: " +
                                  std::string(arg));
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      options_.push_back({std::string(arg.substr(0, eq)),
                          std::string(arg.substr(eq + 1))});
      continue;
    }
    // `--name value` unless the next token is another flag (then boolean).
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      options_.push_back({std::string(arg), argv[i + 1]});
      ++i;
    } else {
      options_.push_back({std::string(arg), "true"});
    }
  }
}

CliParser& CliParser::describe(std::string_view name, std::string_view help) {
  described_.push_back({std::string(name), std::string(help)});
  return *this;
}

bool CliParser::has(std::string_view name) const {
  return std::any_of(options_.begin(), options_.end(),
                     [&](const Option& o) { return o.name == name; });
}

std::optional<std::string> CliParser::get(std::string_view name) const {
  for (const Option& o : options_)
    if (o.name == name) return o.value;
  return std::nullopt;
}

std::string CliParser::get_string(std::string_view name,
                                  std::string_view fallback) const {
  if (auto v = get(name)) return *v;
  return std::string(fallback);
}

namespace {

/// Strict whole-token parse: the value must be exactly one number — no
/// leading blanks, no trailing characters, in range — so `--threads 2x`
/// or `--spill-mb 3.9` fail loudly instead of running as 2 or 3.
template <typename T>
T parse_whole(std::string_view name, const std::string& value,
              const char* expects) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || error != std::errc{} || stop != end)
    throw std::invalid_argument("--" + std::string(name) + " expects " +
                                expects + ", got '" + value + "'");
  return parsed;
}

}  // namespace

long CliParser::get_int(std::string_view name, long fallback) const {
  if (auto v = get(name)) return parse_whole<long>(name, *v, "an integer");
  return fallback;
}

double CliParser::get_double(std::string_view name, double fallback) const {
  if (auto v = get(name)) return parse_whole<double>(name, *v, "a number");
  return fallback;
}

bool CliParser::get_bool(std::string_view name, bool fallback) const {
  if (auto v = get(name)) {
    if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
    if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
    throw std::invalid_argument("--" + std::string(name) +
                                " expects a boolean, got '" + *v + "'");
  }
  return fallback;
}

std::string CliParser::usage(std::string_view program_summary) const {
  std::ostringstream out;
  out << program_ << " — " << program_summary << "\n\nOptions:\n";
  for (const Described& d : described_)
    out << "  --" << d.name << "\n      " << d.help << "\n";
  return out.str();
}

void CliParser::reject_unknown() const {
  for (const Option& o : options_) {
    const bool known =
        std::any_of(described_.begin(), described_.end(),
                    [&](const Described& d) { return d.name == o.name; });
    if (!known)
      throw std::invalid_argument("unknown option --" + o.name +
                                  " (see --help)");
  }
}

}  // namespace coredis
