// The policy shootout: every registered policy vs the chaos corpus.
//
// The corpus is drawn from seeded chaos schedules (chaos/schedule.hpp):
// every distinct failure *pattern* (the sorted set of components down after
// a fail action) across `campaigns` schedules, capped at `max_patterns` and
// filtered to discriminating patterns — ones that break the observer pair's
// preferred-network direct path while leaving a backup path alive, so the
// policies' answers actually differ.
// Each pattern runs through run_failure_scenario under each
// policy with detection tracking on; the observer pair is derived from the
// pattern (destination = owner of the first failed NIC) so the measured
// stream is one the failure actually threatens. The per-policy aggregates
// are ranked into one table — detection time, application outage, detour
// stretch and control-message overhead side by side, the comparison axis
// the paper never had.
//
// Everything is a pure function of the config (seeded schedules, virtual
// time), so the ranked table is golden-pinnable byte-for-byte:
// tests/golden/policy_shootout.txt pins it, and the policy-shootout-smoke
// CI step re-runs the same reduced grid against the same golden.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "policy/comparison.hpp"

namespace drs::policy {

struct ShootoutConfig {
  std::uint16_t node_count = 8;
  std::uint64_t seed = 1;
  /// Chaos schedules drawn for the failure-pattern corpus.
  std::uint32_t campaigns = 5;
  /// Fail/restore actions per schedule.
  std::uint64_t events_per_campaign = 10;
  /// Cap on distinct failure patterns (keeps the smoke grid small).
  std::uint32_t max_patterns = 12;
  /// Policies to run; empty = every registered policy.
  std::vector<std::string> policy_filter;
  /// Parameters handed to every policy (each reads only its own struct).
  PolicyParams params;

  /// Scenario-harness knobs (see ScenarioConfig).
  util::Duration app_probe_interval = util::Duration::millis(10);
  util::Duration app_probe_timeout = util::Duration::millis(50);
  util::Duration warmup = util::Duration::seconds(2);
  util::Duration measure = util::Duration::seconds(8);
};

/// Per-policy aggregate over the corpus.
struct ShootoutRow {
  std::string policy;
  std::uint32_t patterns = 0;   // corpus size
  std::uint32_t recovered = 0;  // patterns with a post-failure success
  std::uint32_t detected = 0;   // patterns with an observed table change
  double mean_detection_ms = 0.0;  // over detected patterns
  double mean_outage_ms = 0.0;     // over recovered patterns
  double mean_stretch = 0.0;       // hops_after / hops_before, recovered only
  std::uint64_t messages = 0;      // control messages, summed over patterns
};

struct ShootoutReport {
  std::vector<ShootoutRow> rows;  // ranked: see run_shootout
  std::vector<std::vector<net::ComponentIndex>> corpus;

  /// The ranked table, deterministic byte-for-byte (golden-pinned).
  std::string table() const;
  /// Canonical JSON (same ordering as the table).
  std::string json() const;
};

/// Builds the corpus and runs it under every selected policy. Rows are
/// ranked best-first: most patterns recovered, then lowest mean outage,
/// then fewest messages, then name.
ShootoutReport run_shootout(const ShootoutConfig& config);

}  // namespace drs::policy
