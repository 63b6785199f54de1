// The adaptive-lookahead (earliest-output-time) window protocol and
// untraced runs, tested where the differential corpus cannot see:
//   - coalescing invariance: adaptive windows change ONLY the window count —
//     the merged trace and semantic metrics are byte-identical to the
//     fixed-lookahead protocol, while the window count shrinks >= 5x;
//   - untraced runs on the paper's deployment shape: with the journal and
//     merge elided, executed events, semantic metric snapshots and the
//     pristine verdict equal the traced run's at 1 and 4 shards, under a
//     seeded fault schedule (and no merged trace is produced);
//   - the relay replay's tie-break at t = 0, where a relay failure follows
//     the gateways' setup-pushed first ticks;
//   - window spans: recorded spans tile the run (monotone, non-overlapping),
//     account for every executed event, and export to Chrome trace format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "cluster/partition.hpp"
#include "net/failure.hpp"
#include "corpus_golden.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/sharded.hpp"
#include "util/time.hpp"

namespace drs {
namespace {

util::SimTime at_ms(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

cluster::FleetConfig fleet_config(std::uint16_t clusters,
                                  std::uint16_t nodes) {
  cluster::FleetConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

/// A fleet run that exercises the oracle's whole surface: relay blip,
/// gateway outage with recovery, healthy tail.
struct FleetRun {
  std::string trace_json;
  std::string semantic_metrics;  // cluster./gateway./relay./fleet. only
  std::uint64_t probes_sent = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t windows_coalesced = 0;
  bool pristine = true;
};

// Keeps only the semantic metric families every execution mode must agree
// on; per-queue (sim./arena./shard.) and engine diagnostics are mode-local.
std::string semantic_only(const std::string& json) {
  return golden::strip_metric_prefixes(json,
                                       {"sim.", "arena.", "shard.", "engine."});
}

void schedule_mixed_outages(cluster::ShardedFleet& fleet) {
  const net::ComponentIndex relay =
      fleet.components().relay_backplane_component();
  const net::ComponentIndex gateway1 = fleet.components().gateway_component(1);
  fleet.schedule_component_failure(at_ms(120), relay, true);
  fleet.schedule_component_failure(at_ms(180), relay, false);
  fleet.schedule_component_failure(at_ms(250), gateway1, true);
  fleet.schedule_component_failure(at_ms(400), gateway1, false);
}

FleetRun run_fleet(std::uint32_t shards, bool adaptive) {
  cluster::ShardedFleetConfig config;
  config.fleet = fleet_config(4, 4);
  config.shards = shards;
  config.trace_capacity = std::size_t{1} << 16;
  config.check_windows = true;
  config.adaptive_windows = adaptive;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  schedule_mixed_outages(fleet);
  fleet.run_until(at_ms(600));

  EXPECT_EQ(fleet.engine().window_violations(), 0u);
  EXPECT_GE(fleet.engine().min_foreign_margin_ns(), 0);

  FleetRun run;
  run.trace_json = obs::to_canonical_json(fleet.merged_trace());
  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  run.semantic_metrics = semantic_only(registry.to_json());
  run.probes_sent = fleet.total_probes_sent();
  run.executed_events = fleet.engine().events_executed();
  run.windows_run = fleet.engine().windows_run();
  run.windows_coalesced = fleet.engine().windows_coalesced();
  run.pristine = fleet.all_pristine();
  return run;
}

// -- coalescing invariance ----------------------------------------------------

TEST(ShardedAdaptive, CoalescingChangesOnlyTheWindowCount) {
  const FleetRun fixed = run_fleet(4, /*adaptive=*/false);
  const FleetRun adaptive = run_fleet(4, /*adaptive=*/true);

  // Identical observable output...
  EXPECT_EQ(fixed.trace_json, adaptive.trace_json);
  EXPECT_EQ(fixed.semantic_metrics, adaptive.semantic_metrics);
  EXPECT_EQ(fixed.probes_sent, adaptive.probes_sent);
  EXPECT_EQ(fixed.executed_events, adaptive.executed_events);
  EXPECT_EQ(fixed.pristine, adaptive.pristine);

  // ...from far fewer synchronization windows. The acceptance bar is 5x;
  // the probe cadence (100 ms) vs the 5 us lookahead makes the real ratio
  // orders of magnitude larger on idle stretches.
  EXPECT_EQ(fixed.windows_coalesced, 0u);
  EXPECT_GT(adaptive.windows_coalesced, 0u);
  ASSERT_GT(adaptive.windows_run, 0u);
  EXPECT_GE(fixed.windows_run, 5u * adaptive.windows_run)
      << "fixed " << fixed.windows_run << " vs adaptive "
      << adaptive.windows_run;
}

TEST(ShardedAdaptive, MaxWindowCapBoundsWindowWidth) {
  // Windows start at the next pending event (idle gaps are skipped), so the
  // cap bounds each window's WIDTH, not the window count per unit sim-time.
  const std::int64_t cap_ns = util::Duration::millis(1).ns();
  auto run = [&](std::int64_t max_window_ns) {
    cluster::ShardedFleetConfig config;
    config.fleet = fleet_config(2, 4);
    config.shards = 2;
    config.check_windows = true;
    config.record_window_spans = true;
    config.max_window_ns = max_window_ns;
    cluster::ShardedFleet fleet(config);
    fleet.start();
    fleet.run_until(at_ms(50));
    EXPECT_EQ(fleet.engine().window_violations(), 0u);
    std::int64_t widest = 0;
    for (const obs::WindowSpan& span : fleet.engine().window_spans()) {
      widest = std::max(widest, span.end_ns - span.start_ns);
    }
    return std::pair<std::uint64_t, std::int64_t>{
        fleet.engine().windows_run(), widest};
  };

  const auto [uncapped_windows, uncapped_widest] = run(0);
  const auto [capped_windows, capped_widest] = run(cap_ns);
  // The uncapped adaptive run coalesces past the cap (otherwise the cap is
  // not exercised); the capped run never exceeds it, at the cost of extra
  // windows.
  EXPECT_GT(uncapped_widest, cap_ns);
  EXPECT_LE(capped_widest, cap_ns);
  EXPECT_GT(capped_windows, uncapped_windows);
}

// -- untraced runs -------------------------------------------------------------

TEST(ShardedAdaptive, UntracedMatchesTracedOnTheDeploymentShape) {
  // The paper's deployment (27 clusters of 8, default daemon config) under
  // the first seconds of a seed-1 40-action fault schedule over the fleet's
  // flat component space. The traced 1-shard run is the reference: the
  // fleet corpus golden (test_sharded_differential) ties traced runs to the
  // frozen single-queue output.
  constexpr std::uint16_t kClusters = 27;
  constexpr std::uint16_t kNodes = 8;
  const cluster::FleetComponents components(kClusters, kNodes);
  chaos::ScheduleConfig schedule;
  schedule.events = 40;
  schedule.start = util::Duration::millis(400);
  schedule.min_gap = util::Duration::millis(500);
  schedule.max_jitter = util::Duration::millis(100);
  const std::vector<net::FailureAction> actions =
      chaos::generate_domain_schedule(1, 0, components.count(), schedule)
          .actions;

  struct DeployRun {
    std::uint64_t executed_events = 0;
    bool pristine = false;
    std::string semantic_metrics;
  };
  const auto run = [&](std::uint32_t shards, bool traced) {
    cluster::ShardedFleetConfig config;
    config.fleet.clusters = kClusters;
    config.fleet.nodes_per_cluster = kNodes;
    config.shards = shards;
    config.trace_capacity = traced ? std::size_t{1} << 16 : 0;
    config.check_windows = true;
    cluster::ShardedFleet fleet(config);
    fleet.start();
    for (const net::FailureAction& action : actions) {
      fleet.schedule_component_failure(action.at, action.component,
                                       action.fail);
    }
    fleet.run_until(at_ms(3000));
    EXPECT_EQ(fleet.engine().window_violations(), 0u);
    EXPECT_GE(fleet.engine().min_foreign_margin_ns(), 0);
    EXPECT_EQ(fleet.merged_trace().empty(), !traced);
    obs::MetricRegistry registry;
    fleet.collect_metrics(registry);
    return DeployRun{fleet.engine().events_executed(), fleet.all_pristine(),
                     semantic_only(registry.to_json())};
  };

  const DeployRun reference = run(1, /*traced=*/true);
  ASSERT_GT(reference.executed_events, 0u);
  for (const std::uint32_t shards : {1u, 4u}) {
    for (const bool traced : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   (traced ? " traced" : " untraced"));
      const DeployRun got = run(shards, traced);
      EXPECT_EQ(got.executed_events, reference.executed_events);
      EXPECT_EQ(got.pristine, reference.pristine);
      EXPECT_EQ(got.semantic_metrics, reference.semantic_metrics);
    }
  }
}

TEST(ShardedAdaptive, RelayFailureAtTimeZeroFollowsTheFirstGatewayTicks) {
  // The gateways' first ticks at t = 0 were pushed during setup, before any
  // injection, so one queue transmits their echoes before a relay failure
  // scheduled at t = 0 clears them from the stream: lost in flight, not
  // dropped at the failed hub. Traced and untraced runs replay the same.
  for (const std::uint32_t shards : {1u, 2u}) {
    for (const bool traced : {true, false}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   (traced ? " traced" : " untraced"));
      cluster::ShardedFleetConfig config;
      config.fleet = fleet_config(4, 4);
      config.shards = shards;
      config.trace_capacity = traced ? std::size_t{1} << 16 : 0;
      cluster::ShardedFleet fleet(config);
      fleet.start();
      const net::ComponentIndex relay =
          fleet.components().relay_backplane_component();
      fleet.schedule_component_failure(at_ms(0), relay, true);
      fleet.schedule_component_failure(at_ms(300), relay, false);
      fleet.run_until(at_ms(600));
      obs::MetricRegistry registry;
      fleet.collect_metrics(registry);
      EXPECT_EQ(registry.counter("relay.lost_in_flight").value(), 4);
    }
  }
}

// -- window spans -------------------------------------------------------------

TEST(ShardedAdaptive, WindowSpansTileTheRunAndExport) {
  cluster::ShardedFleetConfig config;
  config.fleet = fleet_config(3, 4);
  config.shards = 3;
  config.record_window_spans = true;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  fleet.run_until(at_ms(400));

  const std::vector<obs::WindowSpan>& spans = fleet.engine().window_spans();
  ASSERT_EQ(spans.size(), fleet.engine().windows_run());
  ASSERT_FALSE(spans.empty());
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].start_ns, spans[i].end_ns) << "span " << i;
    if (i > 0) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].end_ns)
          << "overlapping windows at span " << i;
    }
    EXPECT_LE(spans[i].active_shards, 3u);
    events += spans[i].events;
  }
  // Every executed event belongs to exactly one window.
  EXPECT_EQ(events, fleet.engine().events_executed());

  const std::string chrome =
      obs::to_chrome_trace_json(fleet.merged_trace(), spans);
  EXPECT_NE(chrome.find("\"window\""), std::string::npos);
  EXPECT_NE(chrome.find("\"active_shards\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace drs
