#pragma once

/// \file protocol.hpp
/// The `coredis_serve` wire protocol (DESIGN.md section 9.1).
///
/// Newline-delimited JSON over a local stream socket: one request object
/// per line in, one response object per line out, in request order per
/// connection. Requests are standard JSON (RFC 8259) read by the strict
/// util/json reader: every string escape decodes, integers are
/// range-checked, numbers follow the JSON grammar (no NaN, inf or hex),
/// fields may appear in any order and unknown fields are an error. A
/// malformed value names its field ("field 'id' out of range at byte 6").
///
/// Requests:
///   {"id":1,"op":"ping"}
///   {"id":2,"op":"what_if","tenant":"acme",
///    "scenario":"n = 6; p = 24; mtbf_years = 5","configs":"paper","rep":0}
///   {"id":3,"op":"admit","scenario":"...","configs":"ig_local",
///    "limit_days":30}
///   {"id":4,"op":"stats"}
///   {"id":5,"op":"shutdown"}
///
/// `scenario` is scenario-file text with ';' or an escaped newline as
/// the line separator; it parses and validates exactly like a file on disk, so
/// errors name the offending key. `configs` is the campaign selector
/// grammar (exp::parse_config_set; default "paper"); `policy` is an
/// alias for it aimed at registry policy strings such as
/// "bandit(window=50, explore=0.1)" — sending both fields is an error,
/// and an unknown policy yields a structured
/// {"id":N,"ok":false,"error":"unknown policy ..."} response naming the
/// offending token, never a closed connection. `rep` picks the
/// Monte-Carlo repetition (default 0). `admit` admits when the *first*
/// configuration's makespan meets the bar: `limit_days` when given,
/// otherwise the no-redistribution baseline (normalized <= 1).
///
/// Responses echo the request id: {"id":N,"ok":true,...} carrying
/// `baseline_makespan` and one entry per configuration (name, makespan,
/// normalized, redistributions, effective_faults — the cell-record
/// fields of campaign JSONL), or {"id":N,"ok":false,"error":"..."}.
/// Every response is a pure function of its request — the batching
/// determinism contract (section 9.3) depends on exactly this.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"

namespace coredis::serve {

enum class Op { Ping, WhatIf, Admit, Stats, Shutdown };

struct Request {
  std::uint64_t id = 0;
  Op op = Op::Ping;
  std::string tenant = "default";
  exp::Scenario scenario;          ///< parsed + validated (WhatIf/Admit)
  std::string scenario_text;       ///< canonical format_scenario(scenario)
  std::vector<exp::ConfigSpec> configs;
  std::uint64_t rep = 0;
  double limit_seconds = -1.0;     ///< Admit bar in seconds; < 0 = baseline
};

/// Parse one request line. Returns false and fills `error` (and whatever
/// `request.id` had been scanned, so the error response can still echo
/// it) on malformed JSON, unknown fields/ops, or invalid scenario or
/// configs values.
[[nodiscard]] bool parse_request(const std::string& line, Request& request,
                                 std::string& error);

/// {"id":N,"ok":false,"error":"..."}
[[nodiscard]] std::string error_response(std::uint64_t id,
                                         const std::string& error);

/// {"id":N,"ok":true,"op":"ping"}
[[nodiscard]] std::string ping_response(std::uint64_t id);

/// The WhatIf/Admit response for `cell`, whose results are positionally
/// aligned with request.configs. Doubles print as %.17g, so a response
/// round-trips bit-exactly — equality of response strings is equality of
/// simulated results.
[[nodiscard]] std::string render_response(const Request& request,
                                          const exp::CellResult& cell);

}  // namespace coredis::serve
