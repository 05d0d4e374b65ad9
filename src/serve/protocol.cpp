#include "serve/protocol.hpp"

#include <stdexcept>
#include <utility>

#include "exp/scenario_file.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace coredis::serve {

namespace {

bool parse_op(const std::string& text, Op& op) {
  if (text == "ping") op = Op::Ping;
  else if (text == "what_if") op = Op::WhatIf;
  else if (text == "admit") op = Op::Admit;
  else if (text == "stats") op = Op::Stats;
  else if (text == "shutdown") op = Op::Shutdown;
  else return false;
  return true;
}

}  // namespace

bool parse_request(const std::string& line, Request& request,
                   std::string& error) {
  std::string op_text = "ping";
  std::string scenario_text;
  bool have_scenario = false;
  std::string configs_text = "paper";
  bool have_configs = false;
  bool have_policy = false;
  double limit_days = -1.0;

  // The field whose value is being read, so a JSON error inside it
  // names the field; empty between fields.
  std::string field;
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument(why);
  };
  try {
    json::Reader in(line);
    in.object([&](const std::string& key) {
      field = key;
      if (key == "op") {
        op_text = in.string();
      } else if (key == "tenant") {
        request.tenant = in.string();
        if (request.tenant.empty()) reject("field 'tenant' must be non-empty");
      } else if (key == "scenario") {
        scenario_text = in.string();
        have_scenario = true;
      } else if (key == "configs") {
        configs_text = in.string();
        have_configs = true;
      } else if (key == "policy") {
        // Alias for 'configs' aimed at registry policy strings — same
        // selector grammar, so "policy":"bandit(window=50)" just works.
        // An unknown policy comes back as a structured error response
        // naming the token, never a dropped connection.
        configs_text = in.string();
        have_policy = true;
      } else if (key == "id") {
        request.id = in.u64();
      } else if (key == "rep") {
        request.rep = in.u64();
      } else if (key == "limit_days") {
        limit_days = in.number();
        if (!(limit_days > 0.0)) reject("field 'limit_days' must be > 0");
      } else {
        reject("unknown field '" + key + "'");
      }
      field.clear();
    });
    in.finish();
  } catch (const json::Error& failure) {
    error = field.empty()
                ? "request is not a well-formed JSON object: " +
                      std::string(failure.what())
                : "field '" + field + "' " + failure.what();
    return false;
  } catch (const std::invalid_argument& failure) {
    error = failure.what();
    return false;
  }

  if (!parse_op(op_text, request.op)) {
    error = "unknown op '" + op_text +
            "' (ping|what_if|admit|stats|shutdown)";
    return false;
  }
  if (have_configs && have_policy) {
    error = "specify either 'configs' or 'policy', not both";
    return false;
  }
  if (request.op != Op::WhatIf && request.op != Op::Admit) return true;

  if (!have_scenario) {
    error = "op '" + op_text + "' requires a 'scenario' field";
    return false;
  }
  // ';' doubles as a line separator (as does an escaped "\n"), so a
  // scenario fits one JSON string; the text then parses (and validates)
  // exactly like a scenario file, errors naming the offending key.
  for (char& c : scenario_text)
    if (c == ';') c = '\n';
  try {
    request.scenario = exp::parse_scenario(scenario_text);
    request.configs = exp::parse_config_set(configs_text);
  } catch (const std::exception& parse_error) {
    error = parse_error.what();
    return false;
  }
  if (request.configs.empty()) {
    error = "field 'configs' selected no configurations";
    return false;
  }
  // Canonical text: requests that spell the same scenario differently
  // (ordering, defaults, number formatting) share one workspace key.
  request.scenario_text = exp::format_scenario(request.scenario);
  request.limit_seconds = limit_days > 0.0 ? units::days(limit_days) : -1.0;
  return true;
}

std::string error_response(std::uint64_t id, const std::string& error) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ",\"ok\":false,\"error\":\"";
  out += json::escape(error);
  out += "\"}";
  return out;
}

std::string ping_response(std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"op\":\"ping\"}";
}

std::string render_response(const Request& request,
                            const exp::CellResult& cell) {
  std::string out = "{\"id\":";
  out += std::to_string(request.id);
  out += ",\"ok\":true,\"op\":";
  out += request.op == Op::Admit ? "\"admit\"" : "\"what_if\"";
  out += ",\"tenant\":\"";
  out += json::escape(request.tenant);
  out += "\",\"rep\":";
  out += std::to_string(request.rep);
  if (request.op == Op::Admit) {
    // The admission decision reads the *first* configuration — the one
    // the client asked the question about; extra configs are advisory.
    const double makespan = cell.results.front().makespan;
    const bool admit = request.limit_seconds >= 0.0
                           ? makespan <= request.limit_seconds
                           : makespan <= cell.baseline;
    out += ",\"admit\":";
    out += admit ? "true" : "false";
    out += ",\"criterion\":";
    out += request.limit_seconds >= 0.0 ? "\"limit_days\"" : "\"baseline\"";
  }
  out += ",\"baseline_makespan\":";
  out += json::format_number(cell.baseline);
  out += ",\"configs\":";
  exp::append_config_results(out, request.configs, cell);
  out += '}';
  return out;
}

}  // namespace coredis::serve
