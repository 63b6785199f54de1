// Side-by-side: the same hardware failure under DRS, RIP-lite and static
// routing, measured from the application's point of view.
//
//   $ ./proactive_vs_reactive [--nodes 12] [--scenario nic|backplane|cross]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "drs.hpp"

using namespace drs;
using namespace drs::util::literals;

int main(int argc, char** argv) {
  auto flags = util::Flags::parse(
      argc, argv,
      {{"nodes", "cluster size (default 12)"},
       {"scenario", "nic | backplane | cross (default nic)"},
       {"rip-advert-ms", "RIP advertisement interval (default 1000)"},
       {"rip-timeout-ms", "RIP route timeout (default 6000)"}});
  if (!flags) return 1;
  if (flags->help_requested()) return 0;

  const auto nodes = static_cast<std::uint16_t>(flags->get_int("nodes", 12));
  const std::string scenario = flags->get_string("scenario", "nic");

  std::vector<net::ComponentIndex> failures;
  if (scenario == "nic") {
    failures = {net::ClusterNetwork::nic_component(1, 0)};
  } else if (scenario == "backplane") {
    failures = {static_cast<net::ComponentIndex>(2u * nodes)};
  } else if (scenario == "cross") {
    failures = {net::ClusterNetwork::nic_component(0, 1),
                net::ClusterNetwork::nic_component(1, 0)};
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
    return 1;
  }

  util::Table table({"protocol", "healthy before", "recovered", "app outage",
                     "probes lost", "protocol msgs"});
  for (const char* name : {"drs", "rip", "static"}) {
    policy::ScenarioConfig config;
    config.node_count = nodes;
    config.policy = name;
    config.params.rip.advertise_interval =
        util::Duration::millis(flags->get_int("rip-advert-ms", 1000));
    config.params.rip.route_timeout =
        util::Duration::millis(flags->get_int("rip-timeout-ms", 6000));
    config.warmup = 3_s;
    config.measure = config.params.rip.route_timeout * 3;
    policy::ScenarioResult result;
    try {
      result = policy::run_failure_scenario(config, failures);
    } catch (const std::invalid_argument& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    table.add_row({name,
                   result.healthy_before ? "yes" : "no",
                   result.recovered ? "yes" : "no",
                   result.recovered ? util::to_string(result.app_outage)
                                    : std::string("-"),
                   std::to_string(result.probes_lost),
                   std::to_string(result.protocol_messages)});
  }
  std::printf("scenario: %s failure, %u nodes\n%s", scenario.c_str(), nodes,
              table.to_text().c_str());
  std::printf(
      "\nDRS repairs in O(probe interval); RIP waits out its route timeout;\n"
      "static routing never recovers. Classic RIP uses 30 s / 180 s timers —\n"
      "pass --rip-advert-ms 30000 --rip-timeout-ms 180000 to see it unscaled.\n");
  return 0;
}
