// Fleet-scale pinning: the paper's 27-cluster deployment as one simulation.
//
// The golden smoke run locks the fleet's observable aggregate — per-cluster
// probe totals, gateway echo counters, pristine state, end-to-end relay
// reachability — down to the byte. The remaining tests pin the properties
// the Fleet exists for: member clusters behave exactly like standalone
// clusters (isolation invariant), the flat FailureDomain component space
// addresses every cluster/gateway/relay part, and relay-segment failures
// are detected and survive healing.
//
// To regenerate after an intentional protocol change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_cluster_fleet
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos/campaign.hpp"
#include "cluster/fleet.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
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
cluster::FleetConfig smoke_config() {
  cluster::FleetConfig config;
  config.clusters = 27;
  config.nodes_per_cluster = 8;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

/// Deterministic integer report of a 500 ms fleet run: protocol-level
/// counters only (no allocator internals), so the golden survives unrelated
/// refactors but pins every probe the fleet sends.
std::string fleet_smoke_report() {
  sim::Simulator sim;
  cluster::Fleet fleet(sim, smoke_config());
  fleet.start();
  fleet.settle(util::Duration::millis(500));

  std::ostringstream report;
  report << "{\"clusters\":" << fleet.cluster_count()
         << ",\"nodes_per_cluster\":" << fleet.nodes_per_cluster();
  report << ",\"cluster_probes_sent\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.system(c).total_probes_sent();
  }
  report << "],\"gateway_echoes\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_sent();
  }
  report << "],\"gateway_timeouts\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_timed_out();
  }
  report << "],\"all_pristine\":" << (fleet.all_pristine() ? "true" : "false");
  const bool reachable = fleet.test_relay_reachability(
      0, static_cast<net::ClusterId>(fleet.cluster_count() - 1u));
  report << ",\"relay_0_to_26\":" << (reachable ? "true" : "false") << "}";
  fleet.stop();
  return report.str();
}

TEST(ClusterFleet, TwentySevenClusterSmokeGolden) {
  const std::string actual = fleet_smoke_report();
  // Rerun identity first: the golden is only meaningful if the scenario is
  // a pure function of the config.
  ASSERT_EQ(fleet_smoke_report(), actual);
  check_golden("fleet_smoke_27.json", actual);
}

// Isolation invariant: a fleet member cluster reuses the standalone subnet
// plan verbatim and shares nothing but the simulator, so its DRS system
// must produce exactly the counters a standalone cluster of the same size
// produces over the same simulated span.
TEST(ClusterFleet, MemberClusterMatchesStandaloneCluster) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 3;
  config.nodes_per_cluster = 5;
  sim::Simulator fleet_sim;
  cluster::Fleet fleet(fleet_sim, config);
  fleet.start();
  fleet.settle(util::Duration::seconds(1));

  sim::Simulator solo_sim;
  net::ClusterNetwork solo(solo_sim,
                           {.node_count = config.nodes_per_cluster,
                            .backplane = config.backplane});
  core::DrsSystem solo_system(solo, config.drs);
  solo_system.start();
  solo_sim.run_for(util::Duration::seconds(1));

  for (net::ClusterId c = 0; c < config.clusters; ++c) {
    EXPECT_EQ(fleet.system(c).total_probes_sent(),
              solo_system.total_probes_sent())
        << "cluster " << c;
    EXPECT_EQ(fleet.system(c).total_control_messages(),
              solo_system.total_control_messages())
        << "cluster " << c;
    EXPECT_TRUE(fleet.system(c).all_pristine()) << "cluster " << c;
  }
  EXPECT_TRUE(solo_system.all_pristine());
  solo_system.stop();
  fleet.stop();
}

TEST(ClusterFleet, ComponentSpaceAddressesEveryPart) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 4;
  config.nodes_per_cluster = 3;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);

  const auto stride =
      static_cast<net::ComponentIndex>(2u * config.nodes_per_cluster + 2u);
  ASSERT_EQ(fleet.component_count(),
            config.clusters * stride + config.clusters + 1u);

  // Every index describes itself; the three regions fail and heal cleanly.
  for (net::ComponentIndex i = 0; i < fleet.component_count(); ++i) {
    EXPECT_FALSE(fleet.describe_component(i).empty()) << i;
    EXPECT_FALSE(fleet.component_failed(i)) << i;
  }
  const cluster::FleetComponents& parts = fleet.components();
  const net::ComponentIndex nic =
      parts.cluster_component(2, net::ClusterNetwork::nic_component(1, 0));
  const net::ComponentIndex gateway = parts.gateway_component(3);
  const net::ComponentIndex relay = parts.relay_backplane_component();
  for (const net::ComponentIndex index : {nic, gateway, relay}) {
    fleet.set_component_failed(index, true);
    EXPECT_TRUE(fleet.component_failed(index)) << index;
  }
  // A member cluster sees the flat-index failure through its own local view.
  EXPECT_TRUE(fleet.cluster(2).component_failed(
      net::ClusterNetwork::nic_component(1, 0)));
  for (const net::ComponentIndex index : {nic, gateway, relay}) {
    fleet.set_component_failed(index, false);
    EXPECT_FALSE(fleet.component_failed(index)) << index;
  }
}

TEST(ClusterFleet, OutOfRangeComponentIndexThrowsNamingIt) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 2;
  config.nodes_per_cluster = 3;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);
  const net::ComponentIndex count = fleet.component_count();
  ASSERT_EQ(count, 2u * 8u + 2u + 1u);

  // One past the relay backplane, and far past it: neither may alias the
  // relay (the last valid index).
  for (const net::ComponentIndex index : {count, count + 1000u}) {
    try {
      fleet.set_component_failed(index, true);
      ADD_FAILURE() << "index " << index << " accepted";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(index)), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(count)), std::string::npos) << what;
    }
    EXPECT_THROW((void)fleet.component_failed(index), std::out_of_range);
    EXPECT_THROW((void)fleet.describe_component(index), std::out_of_range);
  }
  EXPECT_FALSE(fleet.relay_backplane().failed());
}

TEST(ClusterFleet, ClusterCountOutsideRangeRejected) {
  cluster::FleetConfig config = smoke_config();
  config.nodes_per_cluster = 2;
  constexpr std::uint16_t kTooMany = cluster::FleetConfig::kMaxClusters + 1;
  for (const std::uint16_t clusters : {std::uint16_t{0}, kTooMany}) {
    config.clusters = clusters;
    sim::Simulator sim;
    EXPECT_THROW(cluster::Fleet(sim, config), std::invalid_argument)
        << clusters;
  }
  // The largest fleet the relay subnet can address still builds.
  config.clusters = cluster::FleetConfig::kMaxClusters;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);
  EXPECT_EQ(fleet.cluster_count(), cluster::FleetConfig::kMaxClusters);
}

TEST(ClusterFleet, RelayFailureIsDetectedAndHeals) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 3;
  config.nodes_per_cluster = 3;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);
  fleet.start();
  fleet.settle(util::Duration::millis(300));
  ASSERT_TRUE(fleet.test_relay_reachability(0, 2));

  const net::ComponentIndex relay =
      fleet.components().relay_backplane_component();
  fleet.set_component_failed(relay, true);
  EXPECT_FALSE(fleet.test_relay_reachability(0, 2));
  // Cluster-internal traffic is unaffected: islands never touch the relay.
  fleet.settle(util::Duration::millis(300));
  EXPECT_TRUE(fleet.all_pristine());

  fleet.set_component_failed(relay, false);
  EXPECT_TRUE(fleet.test_relay_reachability(0, 2));
  fleet.stop();
}

}  // namespace
}  // namespace drs
