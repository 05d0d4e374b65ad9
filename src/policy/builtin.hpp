#pragma once

/// \file builtin.hpp
/// The pre-registry schedulers as registered policies: the paper's pack
/// engine (every user-facing core::EngineConfig knob as a typed
/// option), the online malleable scheduler and the EASY/FCFS batch
/// baselines. Resolving one of these and running it over a cell's warm
/// state is the campaign runner's one dispatch; the byte locks of
/// tests/policy_registry_test.cpp pin its campaign artifacts to the
/// bytes the pre-registry SchedulerKind switch wrote.

#include <string>

#include "core/types.hpp"

namespace coredis::policy {

/// Registration hook (called once by the registry; see registry.hpp).
void register_builtin_policies();

/// The canonical `pack(...)` policy string for an engine configuration:
/// `pack` when every knob is at its default, otherwise the non-default
/// knobs in option order. exp::canonical_policy uses this to give every
/// preset ConfigSpec a registry spelling. Precondition: the test-only
/// reference paths (EngineConfig::linear_event_scan, eager_scans) are
/// off — they have no policy spelling.
[[nodiscard]] std::string pack_canonical(const core::EngineConfig& config);

}  // namespace coredis::policy
