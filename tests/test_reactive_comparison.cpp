#include "policy/comparison.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/network.hpp"

namespace drs::policy {
namespace {

using namespace drs::util::literals;

ScenarioConfig base_config(const std::string& policy) {
  ScenarioConfig config;
  config.node_count = 8;
  config.policy = policy;
  config.params.drs.probe_interval = 50_ms;
  config.params.drs.probe_timeout = 20_ms;
  config.params.drs.failures_to_down = 2;
  config.params.drs.discover_timeout = 25_ms;
  // Scaled-down classic RIP (30 s / 180 s divided by 30).
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.warmup = 3_s;
  config.measure = 12_s;
  return config;
}

std::vector<net::ComponentIndex> peer_primary_nic_failure() {
  // Observer dst (node 1) loses its primary NIC.
  return {net::ClusterNetwork::nic_component(1, 0)};
}

TEST(Comparison, DrsRecoversWithinProbingBudget) {
  const ScenarioResult result =
      run_failure_scenario(base_config("drs"), peer_primary_nic_failure());
  EXPECT_TRUE(result.healthy_before);
  EXPECT_TRUE(result.recovered);
  // Detection (2 x 50 ms) + repair + one probe interval of slack.
  EXPECT_LT(result.app_outage, 500_ms);
  EXPECT_GT(result.protocol_messages, 0u);
}

TEST(Comparison, RipRecoversOnlyAfterTimeout) {
  const ScenarioResult result =
      run_failure_scenario(base_config("rip"), peer_primary_nic_failure());
  EXPECT_TRUE(result.healthy_before);
  EXPECT_TRUE(result.recovered);
  EXPECT_GT(result.app_outage, 3_s);  // at least ~ route_timeout/2
}

TEST(Comparison, StaticNeverRecovers) {
  const ScenarioResult result =
      run_failure_scenario(base_config("static"), peer_primary_nic_failure());
  EXPECT_TRUE(result.healthy_before);
  EXPECT_FALSE(result.recovered);
  EXPECT_EQ(result.app_outage, util::Duration::max());
  EXPECT_EQ(result.protocol_messages, 0u);
}

TEST(Comparison, StaticResilientRecoversWithoutMessages) {
  // The precomputed-failover baseline: the failure notification re-resolves
  // from the backup sequence, with zero protocol traffic ever sent.
  const ScenarioResult result = run_failure_scenario(
      base_config("static_resilient"), peer_primary_nic_failure());
  EXPECT_TRUE(result.healthy_before);
  EXPECT_TRUE(result.recovered);
  EXPECT_EQ(result.protocol_messages, 0u);
  EXPECT_LT(result.app_outage, 100_ms);  // reacts at notification time
}

TEST(Comparison, AlternatePathRecoversAfterNotifyDelay) {
  const ScenarioResult result = run_failure_scenario(
      base_config("alternate_path"), peer_primary_nic_failure());
  EXPECT_TRUE(result.healthy_before);
  EXPECT_TRUE(result.recovered);
  // One notification fan-out to every node, nothing periodic.
  EXPECT_EQ(result.protocol_messages, 8u);
  EXPECT_LT(result.app_outage, 200_ms);
}

TEST(Comparison, DrsBeatsRipByAnOrderOfMagnitude) {
  // The paper's central claim, quantified on identical failures.
  const ScenarioResult drs =
      run_failure_scenario(base_config("drs"), peer_primary_nic_failure());
  const ScenarioResult rip =
      run_failure_scenario(base_config("rip"), peer_primary_nic_failure());
  ASSERT_TRUE(drs.recovered);
  ASSERT_TRUE(rip.recovered);
  EXPECT_LT(drs.app_outage * 10, rip.app_outage);
}

TEST(Comparison, DrsSurvivesBackplaneFailure) {
  sim::Simulator sim;
  net::ClusterNetwork scratch(sim, {.node_count = 8, .backplane = {}});
  const auto backplane = scratch.backplane_component(0);
  const ScenarioResult result =
      run_failure_scenario(base_config("drs"), {backplane});
  EXPECT_TRUE(result.recovered);
  EXPECT_LT(result.app_outage, 500_ms);
}

TEST(Comparison, DrsHandlesCrossSplitWithRelay) {
  const std::vector<net::ComponentIndex> cross = {
      net::ClusterNetwork::nic_component(0, 1),
      net::ClusterNetwork::nic_component(1, 0)};
  const ScenarioResult result =
      run_failure_scenario(base_config("drs"), cross);
  EXPECT_TRUE(result.recovered);
  EXPECT_LT(result.app_outage, 1_s);  // includes relay discovery
}

TEST(Comparison, StaticCrossSplitIsFatalButRipSurvivesEventually) {
  const std::vector<net::ComponentIndex> cross = {
      net::ClusterNetwork::nic_component(0, 1),
      net::ClusterNetwork::nic_component(1, 0)};
  const ScenarioResult stat =
      run_failure_scenario(base_config("static"), cross);
  EXPECT_FALSE(stat.recovered);

  ScenarioConfig rip_config = base_config("rip");
  rip_config.measure = 20_s;
  const ScenarioResult rip = run_failure_scenario(rip_config, cross);
  EXPECT_TRUE(rip.recovered);  // multi-hop distance vector finds the relay
}

TEST(Comparison, NoFailureMeansNoLoss) {
  const ScenarioResult result = run_failure_scenario(base_config("drs"), {});
  EXPECT_TRUE(result.recovered);  // first post-"injection" probe succeeds
  EXPECT_EQ(result.probes_lost, 0u);
  EXPECT_LT(result.app_outage, 100_ms);
}

TEST(Comparison, UnknownPolicyNameListsRegisteredNames) {
  try {
    (void)run_failure_scenario(base_config("ripv9"), {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ripv9"), std::string::npos);
    EXPECT_NE(what.find("drs"), std::string::npos) << what;
    EXPECT_NE(what.find("static_resilient"), std::string::npos) << what;
  }
}

TEST(Comparison, InvalidInputsRejectedNamingTheField) {
  // Each case must fail with std::invalid_argument naming its field, up
  // front, not as an out_of_range from deep inside a policy or after warmup.
  struct Case {
    const char* field;
    net::NodeId observer_src;
    net::NodeId observer_dst;
    std::vector<net::ComponentIndex> failed;
  };
  const std::vector<Case> cases = {
      {"observer_src", 8, 1, {}},  // n = 8: ids are 0..7
      {"observer_dst", 0, 8, {}},
      {"observer_dst", 3, 3, {}},  // a pair that observes itself
      {"failed_components", 0, 1, {net::ClusterNetwork::nic_component(1, 0), 18}},
  };
  for (const Case& c : cases) {
    ScenarioConfig config = base_config("drs");
    config.observer_src = c.observer_src;
    config.observer_dst = c.observer_dst;
    try {
      (void)run_failure_scenario(config, c.failed);
      ADD_FAILURE() << "expected std::invalid_argument for " << c.field;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(c.field), std::string::npos)
          << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << c.field << ": wrong exception type: " << error.what();
    }
  }
}

TEST(Comparison, DetectionTrackingReportsTableChange) {
  ScenarioConfig config = base_config("drs");
  config.track_detection = true;
  const ScenarioResult result =
      run_failure_scenario(config, peer_primary_nic_failure());
  ASSERT_TRUE(result.detection.has_value());
  EXPECT_GT(*result.detection, util::Duration::zero());
  // DRS failover (2 x 50 ms probes) should show up well within a second.
  EXPECT_LT(*result.detection, 1_s);
  EXPECT_GT(result.path_hops_before, 0u);
  EXPECT_GT(result.path_hops_after, 0u);
}

}  // namespace
}  // namespace drs::policy
