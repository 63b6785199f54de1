// Invariants of the sharded engine that the differential corpus relies on
// but does not observe directly:
//   - window containment: with check_windows on, no event ever executes
//     outside the window its shard was released for;
//   - conservative arrivals: no cross-shard event is ever enqueued for a
//     sim-time the destination shard may already have executed past
//     (min_foreign_margin_ns >= 0);
//   - the merged trace is globally time-ordered (gseq order refines time
//     order, so a sorted merge is an invariant, not a post-processing step);
//   - GlobalEventId keeps identities distinct across shard namespaces even
//     where per-queue 32-bit generations wrap and local ids collide;
//   - a window that overflows a shard's trace ring fails the run instead of
//     merging a trace with a hole in it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "cluster/partition.hpp"
#include "obs/event.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace drs {
namespace {

// -- GlobalEventId ------------------------------------------------------------

sim::EventId local_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<sim::EventId>(generation) << 32) | slot;
}

TEST(ShardedProperty, GlobalIdsDistinctAcrossShardNamespaces) {
  // Local ids recycle (generation, slot) per queue, so two shards WILL
  // produce equal local ids; the qualified pair must stay unique — including
  // when a queue's generation counter wraps back to a previously-issued
  // value for a different slot.
  const std::uint32_t generations[] = {0u, 1u, 0xFFFFFFFFu};
  const std::uint32_t slots[] = {0u, 7u};
  const std::uint32_t shards[] = {0u, 1u, 7u};
  std::set<sim::GlobalEventId> seen;
  for (const std::uint32_t shard : shards)
    for (const std::uint32_t generation : generations)
      for (const std::uint32_t slot : slots)
        EXPECT_TRUE(
            seen.insert(sim::GlobalEventId{shard, local_id(generation, slot)})
                .second);
  EXPECT_EQ(seen.size(), 18u);

  // Same local id, different shard: distinct and ordered by shard first.
  const sim::GlobalEventId a{0, local_id(3, 5)};
  const sim::GlobalEventId b{1, local_id(3, 5)};
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  // Generation wraparound: gen 2^32-1 then gen 0 of the same slot are the
  // same queue cell at different lifetimes — distinct identities.
  EXPECT_NE((sim::GlobalEventId{2, local_id(0xFFFFFFFFu, 9)}),
            (sim::GlobalEventId{2, local_id(0u, 9)}));
}

// -- engine-level window containment -----------------------------------------

/// Self-rescheduling chain with a stride deliberately misaligned with the
/// window length, so chain ticks keep straddling window boundaries.
struct Chain {
  sim::Simulator* sim = nullptr;
  std::int64_t step_ns = 0;
  std::int64_t until_ns = 0;
  std::uint64_t ticks = 0;

  void tick() {
    ++ticks;
    if (sim->now().ns() + step_ns > until_ns) return;
    sim->schedule_after(util::Duration::nanos(step_ns), [this] { tick(); });
  }
};

TEST(ShardedProperty, NoEventExecutesOutsideItsWindow) {
  sim::ShardedEngine::Options options;
  options.shards = 4;
  options.lookahead_ns = 5000;
  options.check_windows = true;
  // Fixed-lookahead windows on purpose: these chains are untagged (no
  // boundary events at all), so adaptive windows would legally collapse the
  // whole run into one window and containment would be tested vacuously.
  options.adaptive_windows = false;
  sim::ShardedEngine engine(options);
  engine.begin_setup();

  std::vector<Chain> chains(options.shards);
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    engine.begin_setup_segment(s);
    Chain& chain = chains[s];
    chain.sim = &engine.simulator(s);
    chain.step_ns = 1300 + 7 * s;  // never a multiple of the 5000ns window
    chain.until_ns = 2'000'000;
    chain.sim->schedule_at(util::SimTime::zero() +
                               util::Duration::nanos(100 + 13 * s),
                           [&chain] { chain.tick(); });
    engine.end_setup_segment();
  }

  engine.run_until(util::SimTime::zero() + util::Duration::millis(2));
  EXPECT_EQ(engine.window_violations(), 0u);
  EXPECT_GT(engine.windows_run(), 0u);
  std::uint64_t total_ticks = 0;
  for (const Chain& chain : chains) {
    EXPECT_GT(chain.ticks, 1000u);  // ~2ms / ~1.3us per tick
    total_ticks += chain.ticks;
  }
  EXPECT_EQ(engine.events_executed(), total_ticks);
  // No cross-shard traffic was offered, so the margin tracker is untouched.
  EXPECT_EQ(engine.min_foreign_margin_ns(),
            std::numeric_limits<std::int64_t>::max());
}

// -- fleet-level: conservative margins and merged-trace order ----------------

TEST(ShardedProperty, FleetForeignArrivalsRespectLookahead) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 4;
  config.fleet.nodes_per_cluster = 4;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = 4;
  config.check_windows = true;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  // Exercise the oracle's failure path too: a relay blip plus a gateway
  // outage mid-run.
  const net::ComponentIndex relay =
      fleet.components().relay_backplane_component();
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(300), relay, true);
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(450), relay, false);
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(500),
      fleet.components().gateway_component(2), true);
  fleet.run_until(util::SimTime::zero() + util::Duration::millis(800));

  const sim::ShardedEngine& engine = fleet.engine();
  EXPECT_EQ(engine.window_violations(), 0u);
  EXPECT_GT(engine.windows_run(), 0u);
  // The gateway echo mesh guarantees cross-shard traffic; every arrival must
  // carry a non-negative margin against the earliest still-executable window.
  EXPECT_LT(engine.min_foreign_margin_ns(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GE(engine.min_foreign_margin_ns(), 0);

  // gseq order refines time order: the merged stream is non-decreasing in
  // at_ns with no post-sort.
  const std::vector<obs::TraceEvent>& trace = fleet.merged_trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_GE(trace[i].at_ns, trace[i - 1].at_ns) << "at merged index " << i;
  }
}

TEST(ShardedProperty, RequiresHubRelayWithZeroJitter) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 2;
  config.fleet.nodes_per_cluster = 4;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.fleet.relay_backplane.jitter = util::Duration::micros(1);
  EXPECT_THROW(cluster::ShardedFleet{config}, std::invalid_argument);
}

// -- fleet-level: contract violations fail loudly ----------------------------

cluster::ShardedFleetConfig small_fleet() {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 3;
  config.fleet.nodes_per_cluster = 3;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = 2;
  return config;
}

TEST(ShardedProperty, OutOfRangeComponentIndexThrowsNamingIt) {
  cluster::ShardedFleet fleet(small_fleet());
  fleet.start();
  const net::ComponentIndex count = fleet.component_count();
  ASSERT_EQ(count, 3u * 8u + 3u + 1u);
  const util::SimTime at = util::SimTime::zero() + util::Duration::millis(50);
  for (const net::ComponentIndex index : {count, count + 1000u}) {
    try {
      fleet.schedule_component_failure(at, index, true);
      ADD_FAILURE() << "index " << index << " accepted";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(index)), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(count)), std::string::npos) << what;
    }
    EXPECT_THROW((void)fleet.component_failed(index), std::out_of_range);
  }
  // The rejected calls scheduled nothing: the relay never fails.
  fleet.run_until(util::SimTime::zero() + util::Duration::millis(200));
  EXPECT_FALSE(
      fleet.component_failed(fleet.components().relay_backplane_component()));
  EXPECT_EQ(fleet.engine().window_violations(), 0u);
}

TEST(ShardedProperty, InjectionOutsideSetupThrows) {
  const auto expect_contract_error = [](cluster::ShardedFleet& fleet) {
    try {
      fleet.schedule_component_failure(
          util::SimTime::zero() + util::Duration::millis(900),
          fleet.components().gateway_component(1), true);
      ADD_FAILURE() << "injection outside setup accepted";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("after start()"), std::string::npos) << what;
      EXPECT_NE(what.find("before the first run_until()"), std::string::npos)
          << what;
    }
  };
  {
    cluster::ShardedFleet fleet(small_fleet());
    expect_contract_error(fleet);  // before start()
  }
  cluster::ShardedFleet fleet(small_fleet());
  fleet.start();
  fleet.run_until(util::SimTime::zero() + util::Duration::millis(200));
  expect_contract_error(fleet);  // after run_until()
  // The run continues untouched by the rejected call.
  fleet.run_until(util::SimTime::zero() + util::Duration::seconds(1));
  EXPECT_FALSE(
      fleet.component_failed(fleet.components().gateway_component(1)));
  EXPECT_TRUE(fleet.all_pristine());
}

TEST(ShardedProperty, TraceRingOverflowThrowsNamingTheShard) {
  // A window's emissions must fit the shard's ring until the merge drains
  // them; a ring of 2 overflows in the first busy window, and the run must
  // fail loudly instead of merging a trace with a hole in it.
  cluster::ShardedFleetConfig config = small_fleet();
  config.trace_capacity = 2;
  try {
    cluster::ShardedFleet fleet(config);
    fleet.start();
    fleet.run_until(util::SimTime::zero() + util::Duration::millis(200));
    ADD_FAILURE() << "a run that overflowed its trace ring completed";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard "), std::string::npos) << what;
    EXPECT_NE(what.find("trace events in one"), std::string::npos) << what;
    EXPECT_NE(what.find("trace_capacity of 2"), std::string::npos) << what;
  }
}

TEST(ShardedProperty, ClusterCountOutsideRangeRejected) {
  cluster::ShardedFleetConfig config = small_fleet();
  constexpr std::uint16_t kTooMany = cluster::FleetConfig::kMaxClusters + 1;
  for (const std::uint16_t clusters : {std::uint16_t{0}, kTooMany}) {
    config.fleet.clusters = clusters;
    EXPECT_THROW(cluster::ShardedFleet{config}, std::invalid_argument)
        << clusters;
  }
  // The largest fleet the relay subnet can address still builds.
  config.fleet.clusters = cluster::FleetConfig::kMaxClusters;
  config.fleet.nodes_per_cluster = 2;
  config.trace_capacity = 0;
  cluster::ShardedFleet fleet(config);
  EXPECT_EQ(fleet.cluster_count(), cluster::FleetConfig::kMaxClusters);
}

}  // namespace
}  // namespace drs
