#include "net/failure.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

namespace drs::net {
namespace {

using namespace drs::util::literals;

class ClusterNetworkTest : public ::testing::Test {
 protected:
  ClusterNetworkTest() : network(sim, {.node_count = 6, .backplane = {}}) {}
  sim::Simulator sim;
  ClusterNetwork network;
};

TEST_F(ClusterNetworkTest, ComponentCountMatchesModel) {
  EXPECT_EQ(network.component_count(), 2u * 6 + 2);
}

TEST_F(ClusterNetworkTest, ComponentNumberingRoundTrips) {
  for (ComponentIndex c = 0; c < network.component_count(); ++c) {
    const ComponentRef ref = network.component(c);
    if (ref.kind == ComponentRef::Kind::kNic) {
      EXPECT_EQ(ClusterNetwork::nic_component(ref.node, ref.network), c);
    } else {
      EXPECT_EQ(network.backplane_component(ref.network), c);
    }
  }
}

TEST_F(ClusterNetworkTest, NicComponentsComeFirstThenBackplanes) {
  EXPECT_EQ(network.component(0).kind, ComponentRef::Kind::kNic);
  EXPECT_EQ(network.component(0).node, 0);
  EXPECT_EQ(network.component(0).network, 0);
  EXPECT_EQ(network.component(1).network, 1);
  EXPECT_EQ(network.component(11).node, 5);
  EXPECT_EQ(network.component(12).kind, ComponentRef::Kind::kBackplane);
  EXPECT_EQ(network.component(12).network, 0);
  EXPECT_EQ(network.component(13).network, 1);
}

TEST_F(ClusterNetworkTest, AddressAndMacPlanApplied) {
  for (NodeId i = 0; i < 6; ++i) {
    for (NetworkId k = 0; k < 2; ++k) {
      EXPECT_EQ(network.host(i).nic(k).ip(), cluster_ip(k, i));
      EXPECT_EQ(network.host(i).nic(k).mac(), cluster_mac(k, i));
      EXPECT_EQ(network.host(i).nic(k).backplane(), &network.backplane(k));
    }
  }
}

TEST_F(ClusterNetworkTest, BootRoutingTablesHaveBothSubnets) {
  const auto& table = network.host(2).routing_table();
  EXPECT_EQ(table.routes().size(), 2u);
  ASSERT_TRUE(table.lookup(cluster_ip(0, 4)).has_value());
  EXPECT_EQ(table.lookup(cluster_ip(0, 4))->out_ifindex, 0);
  ASSERT_TRUE(table.lookup(cluster_ip(1, 4)).has_value());
  EXPECT_EQ(table.lookup(cluster_ip(1, 4))->out_ifindex, 1);
}

TEST_F(ClusterNetworkTest, SetComponentFailedHitsTheRightPart) {
  network.set_component_failed(ClusterNetwork::nic_component(3, 1), true);
  EXPECT_TRUE(network.host(3).nic(1).failed());
  EXPECT_FALSE(network.host(3).nic(0).failed());
  EXPECT_TRUE(network.component_failed(ClusterNetwork::nic_component(3, 1)));

  network.set_component_failed(network.backplane_component(0), true);
  EXPECT_TRUE(network.backplane(0).failed());
  EXPECT_FALSE(network.backplane(1).failed());

  network.heal_all();
  for (ComponentIndex c = 0; c < network.component_count(); ++c) {
    EXPECT_FALSE(network.component_failed(c));
  }
}

TEST_F(ClusterNetworkTest, InjectorAppliesAtScheduledTime) {
  FailureInjector injector(network);
  const ComponentIndex target = ClusterNetwork::nic_component(1, 0);
  injector.schedule_outage(util::SimTime::zero() + 10_ms, target, 20_ms);
  sim.run_for(5_ms);
  EXPECT_FALSE(network.component_failed(target));
  sim.run_for(10_ms);  // t = 15 ms
  EXPECT_TRUE(network.component_failed(target));
  sim.run_for(20_ms);  // t = 35 ms
  EXPECT_FALSE(network.component_failed(target));
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_TRUE(injector.log()[0].fail);
  EXPECT_FALSE(injector.log()[1].fail);
  EXPECT_EQ(injector.log()[0].at, util::SimTime::zero() + 10_ms);
}

TEST_F(ClusterNetworkTest, InjectorCountsCurrentlyFailed) {
  FailureInjector injector(network);
  EXPECT_EQ(injector.currently_failed(), 0u);
  injector.apply_now(0, true);
  injector.apply_now(5, true);
  EXPECT_EQ(injector.currently_failed(), 2u);
  injector.apply_now(0, false);
  EXPECT_EQ(injector.currently_failed(), 1u);
}

TEST_F(ClusterNetworkTest, RandomFailuresAreDistinctAndInRange) {
  FailureInjector injector(network);
  util::Rng rng(3);
  const auto picked =
      injector.schedule_random_failures(util::SimTime::zero() + 1_ms, 5, rng);
  EXPECT_EQ(picked.size(), 5u);
  std::set<ComponentIndex> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 5u);
  for (auto c : picked) EXPECT_LT(c, network.component_count());
  sim.run_for(2_ms);
  EXPECT_EQ(injector.currently_failed(), 5u);
}

TEST_F(ClusterNetworkTest, RandomFailuresFullDrawCoversEveryComponent) {
  // The boundary draw: count == 2N+2 asks for *every* component. Floyd's
  // sampling must terminate (no rejection loop over a full urn) and yield
  // each component exactly once.
  FailureInjector injector(network);
  util::Rng rng(9);
  const std::size_t all = network.component_count();
  const auto picked =
      injector.schedule_random_failures(util::SimTime::zero() + 1_ms, all, rng);
  ASSERT_EQ(picked.size(), all);
  std::set<ComponentIndex> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), all);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), static_cast<ComponentIndex>(all - 1));
  sim.run_for(2_ms);
  EXPECT_EQ(injector.currently_failed(), all);
}

TEST_F(ClusterNetworkTest, ScheduleScriptAppliesOutOfOrderActions) {
  FailureInjector injector(network);
  injector.schedule_script({{util::SimTime::zero() + 30_ms, 2, false},
                            {util::SimTime::zero() + 10_ms, 2, true},
                            {util::SimTime::zero() + 20_ms, 7, true}});
  sim.run_for(15_ms);
  EXPECT_TRUE(network.component_failed(2));
  sim.run_for(20_ms);  // t = 35 ms
  EXPECT_FALSE(network.component_failed(2));
  EXPECT_TRUE(network.component_failed(7));
  ASSERT_EQ(injector.log().size(), 3u);
  EXPECT_EQ(injector.log()[0].component, 2u);  // log is in application order
  EXPECT_EQ(injector.log()[1].component, 7u);
  EXPECT_EQ(injector.log()[2].component, 2u);
}

TEST_F(ClusterNetworkTest, ObserverSeesEveryAppliedAction) {
  FailureInjector injector(network);
  std::vector<FailureInjector::LogEntry> seen;
  injector.set_observer(
      [&](const FailureInjector::LogEntry& entry) { seen.push_back(entry); });
  injector.apply_now(4, true);
  injector.schedule_outage(util::SimTime::zero() + 5_ms, 9, 5_ms);
  sim.run_for(20_ms);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].component, 4u);
  EXPECT_TRUE(seen[0].fail);
  EXPECT_EQ(seen[1].component, 9u);
  EXPECT_TRUE(seen[1].fail);
  EXPECT_FALSE(seen[2].fail);
  EXPECT_EQ(seen[2].at, util::SimTime::zero() + 10_ms);
}

// Node i is host 10.k.0.(i+1): 254 nodes fill the /24, and node 254 would
// take the subnet broadcast address.
TEST(ClusterNetworkSize, AcceptsTheAddressPlanBounds) {
  sim::Simulator sim;
  ClusterNetwork smallest(sim, {.node_count = 2, .backplane = {}});
  EXPECT_EQ(smallest.component_count(), 6u);
  ClusterNetwork largest(sim, {.node_count = 254, .backplane = {}});
  EXPECT_EQ(largest.host(253).ip(kNetworkA), Ipv4Addr::octets(10, 1, 0, 254));
  EXPECT_EQ(largest.host(253).ip(kNetworkB), Ipv4Addr::octets(10, 2, 0, 254));
}

TEST(ClusterNetworkSize, RejectsSizesOutsideTheAddressPlan) {
  sim::Simulator sim;
  for (const int n : {0, 1, 255, 256}) {
    try {
      ClusterNetwork network(sim,
                             {.node_count = static_cast<std::uint16_t>(n), .backplane = {}});
      ADD_FAILURE() << "node_count " << n << " accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("node_count"), std::string::npos)
          << error.what();
    }
  }
}

TEST(ComponentRef, Describes) {
  EXPECT_EQ((ComponentRef{ComponentRef::Kind::kNic, 3, 1}).to_string(),
            "nic(node=3, net=1)");
  EXPECT_EQ((ComponentRef{ComponentRef::Kind::kBackplane, 0, 1}).to_string(),
            "backplane(1)");
}

}  // namespace
}  // namespace drs::net
