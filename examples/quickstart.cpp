// Quickstart: build an 8-server dual-backplane cluster, start the DRS
// daemons, break things, and watch the routes heal.
//
//   $ ./quickstart [--nodes 8] [--verbose]
#include <cstdio>

#include "drs.hpp"

using namespace drs;
using namespace drs::util::literals;

int main(int argc, char** argv) {
  auto flags = util::Flags::parse(argc, argv,
                                  {{"nodes", "cluster size (default 8)"},
                                   {"verbose", "log protocol events"}});
  if (!flags) return 1;
  if (flags->help_requested()) return 0;
  if (flags->get_bool("verbose")) util::set_log_level(util::LogLevel::kInfo);
  const auto nodes = static_cast<std::uint16_t>(flags->get_int("nodes", 8));

  // 1+2. A simulated cluster (N hosts, two NICs each, two shared backplanes)
  //      with one running DRS daemon per host, in one expression. Default
  //      config: 100 ms monitoring cycles.
  auto cluster = policy::DrsSystemBuilder().node_count(nodes).build();
  net::ClusterNetwork& network = cluster.network();
  core::DrsSystem& drs = cluster.system();
  drs.settle(1_s);
  std::printf("cluster up, %u nodes; 0 -> 1 reachable: %s\n", nodes,
              drs.test_reachability(0, 1) ? "yes" : "no");

  // 3. Kill node 1's primary NIC. DRS detects the dead link via its ICMP
  //    probes and pins node 1's traffic to the secondary network.
  net::FailureInjector injector(network);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  drs.settle(1_s);
  std::printf("node1 primary NIC down -> mode(0->1) = %s, reachable: %s\n",
              core::to_string(drs.daemon(0).peer_mode(1)),
              drs.test_reachability(0, 1) ? "yes" : "no");

  // 4. Also kill node 0's *secondary* NIC: now 0 and 1 share no working
  //    network. DRS broadcasts ROUTE_DISCOVER and relays through a third
  //    server.
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  drs.settle(2_s);
  const auto relay = drs.daemon(0).relay_for(1);
  std::printf("cross split -> mode(0->1) = %s via node %d, reachable: %s\n",
              core::to_string(drs.daemon(0).peer_mode(1)),
              relay ? static_cast<int>(*relay) : -1,
              drs.test_reachability(0, 1) ? "yes" : "no");

  // 5. Repair the hardware; DRS tears the detours down again.
  network.heal_all();
  drs.settle(2_s);
  std::printf("healed -> mode(0->1) = %s, DRS routes left: %s\n",
              core::to_string(drs.daemon(0).peer_mode(1)),
              drs.daemon(0).host_routes_empty() ? "none" : "some");

  std::printf("totals: %llu probes, %llu control messages, %llu route installs\n",
              static_cast<unsigned long long>(drs.total_probes_sent()),
              static_cast<unsigned long long>(drs.total_control_messages()),
              static_cast<unsigned long long>(drs.total_route_installs()));
  return 0;
}
