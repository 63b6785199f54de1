// Fleet-scale pinning: the paper's 27-cluster deployment.
//
// The golden smoke run locks the fleet's observable aggregate — per-cluster
// probe totals, gateway echo counters, pristine state, relay echo-mesh
// health — down to the byte, at 1 and 4 shards alike. The remaining tests
// pin the properties the fleet exists for: member clusters behave exactly
// like standalone clusters (isolation invariant), the flat component space
// addresses every cluster/gateway/relay part, and relay-segment failures
// are detected and survive healing.
//
// To regenerate after an intentional protocol change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_cluster_fleet
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/campaign.hpp"
#include "cluster/partition.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace drs {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DRS_GOLDEN_DIR) + "/" + name;
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (const char* update = std::getenv("DRS_UPDATE_GOLDEN");
      update != nullptr && *update != '\0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — regenerate with DRS_UPDATE_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "fleet report drifted from " << path
      << " — if intentional, regenerate with DRS_UPDATE_GOLDEN=1";
}

/// The paper's deployment shape, on the fast campaign timings so half a
/// second of simulated time covers ten probe cycles.
cluster::ShardedFleetConfig smoke_config(std::uint32_t shards) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 27;
  config.fleet.nodes_per_cluster = 8;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = shards;
  config.trace_capacity = 0;
  return config;
}

util::SimTime at_ms(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

std::uint64_t gateway_timeouts(cluster::ShardedFleet& fleet) {
  std::uint64_t total = 0;
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    total += fleet.gateway_icmp(c).probes_timed_out();
  }
  return total;
}

/// Deterministic integer report of a 500 ms fleet run: protocol-level
/// counters only (no allocator internals), so the golden survives unrelated
/// refactors but pins every probe the fleet sends. Relay health is the echo
/// mesh's verdict: more gateway echoes sent than timed out.
std::string fleet_smoke_report(std::uint32_t shards) {
  cluster::ShardedFleet fleet(smoke_config(shards));
  fleet.start();
  fleet.run_until(at_ms(500));

  std::ostringstream report;
  report << "{\"clusters\":" << fleet.cluster_count()
         << ",\"nodes_per_cluster\":" << fleet.nodes_per_cluster();
  report << ",\"cluster_probes_sent\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.system(c).total_probes_sent();
  }
  std::uint64_t echoes = 0;
  report << "],\"gateway_echoes\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_sent();
    echoes += fleet.gateway_icmp(c).probes_sent();
  }
  report << "],\"gateway_timeouts\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_timed_out();
  }
  report << "],\"all_pristine\":" << (fleet.all_pristine() ? "true" : "false");
  const bool mesh_healthy = echoes > gateway_timeouts(fleet);
  report << ",\"relay_mesh_healthy\":" << (mesh_healthy ? "true" : "false")
         << "}";
  return report.str();
}

TEST(ClusterFleet, TwentySevenClusterSmokeGolden) {
  const std::string actual = fleet_smoke_report(1);
  // Rerun identity first: the golden is only meaningful if the scenario is
  // a pure function of the config, and of no shard count.
  ASSERT_EQ(fleet_smoke_report(1), actual);
  ASSERT_EQ(fleet_smoke_report(4), actual);
  check_golden("fleet_smoke_27.json", actual);
}

// Isolation invariant: a fleet member cluster reuses the standalone subnet
// plan verbatim and shares nothing but its shard's simulator, so its DRS
// system must produce exactly the counters a standalone cluster of the same
// size produces over the same simulated span, however the clusters are
// spread over shards.
TEST(ClusterFleet, MemberClusterMatchesStandaloneCluster) {
  cluster::ShardedFleetConfig config = smoke_config(1);
  config.fleet.clusters = 3;
  config.fleet.nodes_per_cluster = 5;

  sim::Simulator solo_sim;
  net::ClusterNetwork solo(solo_sim,
                           {.node_count = config.fleet.nodes_per_cluster,
                            .backplane = config.fleet.backplane});
  core::DrsSystem solo_system(solo, config.fleet.drs);
  solo_system.start();
  solo_sim.run_for(util::Duration::seconds(1));
  EXPECT_TRUE(solo_system.all_pristine());

  for (const std::uint32_t shards : {1u, 3u}) {
    config.shards = shards;
    cluster::ShardedFleet fleet(config);
    fleet.start();
    fleet.run_until(at_ms(1000));
    for (net::ClusterId c = 0; c < config.fleet.clusters; ++c) {
      const std::string where =
          "cluster " + std::to_string(c) + " @" + std::to_string(shards);
      EXPECT_EQ(fleet.system(c).total_probes_sent(),
                solo_system.total_probes_sent())
          << where;
      EXPECT_EQ(fleet.system(c).total_control_messages(),
                solo_system.total_control_messages())
          << where;
      EXPECT_TRUE(fleet.system(c).all_pristine()) << where;
    }
  }
  solo_system.stop();
}

TEST(ClusterFleet, ComponentSpaceAddressesEveryPart) {
  cluster::ShardedFleetConfig config = smoke_config(2);
  config.fleet.clusters = 4;
  config.fleet.nodes_per_cluster = 3;
  cluster::ShardedFleet fleet(config);
  fleet.start();

  const auto stride = static_cast<net::ComponentIndex>(
      2u * config.fleet.nodes_per_cluster + 2u);
  ASSERT_EQ(fleet.component_count(),
            config.fleet.clusters * stride + config.fleet.clusters + 1u);

  // One part of each region fails at 100 ms and heals at 300 ms.
  const cluster::FleetComponents& parts = fleet.components();
  const net::ComponentIndex nic =
      parts.cluster_component(2, net::ClusterNetwork::nic_component(1, 0));
  const net::ComponentIndex gateway = parts.gateway_component(3);
  const net::ComponentIndex relay = parts.relay_backplane_component();
  for (const net::ComponentIndex index : {nic, gateway, relay}) {
    fleet.schedule_component_failure(at_ms(100), index, true);
    fleet.schedule_component_failure(at_ms(300), index, false);
  }
  for (net::ComponentIndex i = 0; i < fleet.component_count(); ++i) {
    EXPECT_FALSE(fleet.component_failed(i)) << i;
  }

  fleet.run_until(at_ms(200));
  for (net::ComponentIndex i = 0; i < fleet.component_count(); ++i) {
    const bool injected = i == nic || i == gateway || i == relay;
    EXPECT_EQ(fleet.component_failed(i), injected) << i;
  }
  // A member cluster sees the flat-index failure through its own local view.
  EXPECT_TRUE(fleet.cluster(2).component_failed(
      net::ClusterNetwork::nic_component(1, 0)));

  fleet.run_until(at_ms(400));
  for (net::ComponentIndex i = 0; i < fleet.component_count(); ++i) {
    EXPECT_FALSE(fleet.component_failed(i)) << i;
  }
}

TEST(ClusterFleet, RelayFailureIsDetectedAndHeals) {
  cluster::ShardedFleetConfig config = smoke_config(3);
  config.fleet.clusters = 3;
  config.fleet.nodes_per_cluster = 3;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  const net::ComponentIndex relay =
      fleet.components().relay_backplane_component();
  fleet.schedule_component_failure(at_ms(300), relay, true);
  fleet.schedule_component_failure(at_ms(600), relay, false);

  fleet.run_until(at_ms(300));
  const std::uint64_t before = gateway_timeouts(fleet);
  EXPECT_EQ(before, 0u) << "echo timeouts on a healthy relay";

  // During the outage every echo times out; cluster-internal traffic is
  // unaffected, since the islands never touch the relay.
  fleet.run_until(at_ms(600));
  EXPECT_GT(gateway_timeouts(fleet), before);
  EXPECT_TRUE(fleet.all_pristine());

  // Echoes sent just before the heal time out within one probe timeout;
  // after that the mesh answers again and timeouts stop.
  fleet.run_until(at_ms(700));
  const std::uint64_t healed = gateway_timeouts(fleet);
  fleet.run_until(at_ms(1200));
  EXPECT_EQ(gateway_timeouts(fleet), healed) << "timeouts after the heal";

  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  EXPECT_GT(registry.counter("relay.dropped_failed").value(), 0);
  EXPECT_FALSE(fleet.component_failed(relay));
  EXPECT_TRUE(fleet.all_pristine());
}

}  // namespace
}  // namespace drs
