// Randomized failure/restore schedules, derived from (seed, campaign) alone.
//
// A schedule is the chaos analogue of the Monte-Carlo RNG block: campaign i's
// actions are a pure function of (master seed, i), never of thread count or
// execution order, so any campaign a 10,000-run sweep flags can be replayed
// bit-identically with `chaos_campaign --seed S --first I --campaigns 1`.
//
// Shape guarantees (the invariant checkers rely on them):
//   - actions are sorted by time and strictly spaced by at least `min_gap`,
//     chosen >= the protocol's worst-case repair bound so every action gets a
//     quiet window in which the checkers run;
//   - at most `max_concurrent_failures` components are down at once;
//   - a fail is never issued for a failed component, nor a restore for a
//     healthy one;
//   - the schedule ends by restoring everything still failed, so the
//     detour-cleanup invariant has a well-defined final state.
#pragma once

#include <cstdint>

#include "net/failure.hpp"
#include "util/time.hpp"

namespace drs::chaos {

struct ScheduleConfig {
  /// Nodes in the simulated cluster (2N+2 failure components).
  std::uint16_t node_count = 4;
  /// Fail/restore actions before the final restore-all batch.
  std::uint64_t events = 10;
  /// Simulated time of the first action (after DRS warmup).
  util::Duration start = util::Duration::millis(400);
  /// Minimum spacing between actions — the quiet window for checking.
  util::Duration min_gap = util::Duration::millis(500);
  /// Extra uniformly-random spacing added on top of min_gap.
  util::Duration max_jitter = util::Duration::millis(250);
  /// Cap on simultaneously-failed components.
  std::size_t max_concurrent_failures = 3;
  /// Probability of restoring (vs failing) when both moves are legal.
  double restore_bias = 0.4;
};

struct Schedule {
  std::vector<net::FailureAction> actions;  // sorted by time, see guarantees
  /// Time of the final restore-all batch (== last action time).
  util::SimTime end;
  /// Number of actions excluding the final restore-all batch.
  std::uint64_t churn_events = 0;
};

/// Generates campaign `campaign`'s schedule. Deterministic in
/// (seed, campaign, config); different (seed, campaign) pairs draw from
/// independent RNG streams (same SplitMix64 derivation as drs::mc blocks).
Schedule generate_schedule(std::uint64_t seed, std::uint64_t campaign,
                           const ScheduleConfig& config);

/// Same generator over an explicit component space: schedules for failure
/// domains whose component count is not the single-cluster 2N+2 formula (a
/// fleet's k*(2n+2)+k+1 flat space, say). generate_schedule() delegates here
/// with component_count = 2*node_count+2, drawing the identical action
/// stream, so existing (seed, campaign) replay coordinates stay valid.
Schedule generate_domain_schedule(std::uint64_t seed, std::uint64_t campaign,
                                  std::uint32_t component_count,
                                  const ScheduleConfig& config);

}  // namespace drs::chaos
