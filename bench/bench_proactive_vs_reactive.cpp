// The paper's central qualitative claim, quantified: "The DRS's proactive
// routing policy performs better than traditional routing systems by fixing
// network problems before they effect application communication."
//
// For each failure scenario, the same injection is run under DRS, a RIP-like
// reactive baseline, and static routing; the application-visible outage of
// an observer pair is reported. A trace-driven availability study (the
// MCI-style deployment) closes the table.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "cluster/scenario.hpp"
#include "policy/comparison.hpp"
#include "util/table.hpp"

namespace {

using namespace drs;
using namespace drs::util::literals;

policy::ScenarioConfig base_config(const std::string& name) {
  policy::ScenarioConfig config;
  config.node_count = 12;  // the deployed clusters were 8-12 servers
  config.policy = name;
  config.params.drs.probe_interval = 100_ms;
  config.params.drs.probe_timeout = 40_ms;
  // Classic RIP/OSPF constants scaled (1:30 and 1:20) so one bench run stays
  // in seconds; the DRS/reactive ratios are preserved (see EXPERIMENTS.md).
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.params.ospf.hello_interval = 500_ms;
  config.params.ospf.dead_interval = 2_s;
  config.params.ospf.lsa_refresh = 1500_ms;
  config.warmup = 3_s;
  config.measure = 15_s;
  return config;
}

struct NamedScenario {
  const char* name;
  std::vector<net::ComponentIndex> failures;
};

std::vector<NamedScenario> scenarios() {
  return {
      {"peer primary NIC", {net::ClusterNetwork::nic_component(1, 0)}},
      {"own primary NIC", {net::ClusterNetwork::nic_component(0, 0)}},
      {"backplane A", {2u * 12u + 0u}},
      {"cross split (relay)",
       {net::ClusterNetwork::nic_component(0, 1),
        net::ClusterNetwork::nic_component(1, 0)}},
      {"three NICs",
       {net::ClusterNetwork::nic_component(1, 0),
        net::ClusterNetwork::nic_component(3, 0),
        net::ClusterNetwork::nic_component(5, 1)}},
  };
}

std::string outage_str(const policy::ScenarioResult& result) {
  if (!result.recovered) return "never";
  return util::format_double(result.app_outage.to_seconds(), 3) + " s";
}

void print_outage_comparison() {
  std::printf("=== Application outage by protocol (observer pair 0 -> 1) ===\n");
  util::Table table({"scenario", "drs", "ospf (1:20)", "rip (1:30)", "static",
                     "drs msgs", "ospf msgs", "rip msgs"});
  for (const auto& scenario : scenarios()) {
    const auto drs_result =
        policy::run_failure_scenario(base_config("drs"), scenario.failures);
    const auto ospf_result =
        policy::run_failure_scenario(base_config("ospf"), scenario.failures);
    const auto rip_result =
        policy::run_failure_scenario(base_config("rip"), scenario.failures);
    const auto static_result = policy::run_failure_scenario(
        base_config("static"), scenario.failures);
    table.add_row({scenario.name, outage_str(drs_result), outage_str(ospf_result),
                   outage_str(rip_result), outage_str(static_result),
                   std::to_string(drs_result.protocol_messages),
                   std::to_string(ospf_result.protocol_messages),
                   std::to_string(rip_result.protocol_messages)});
  }
  util::export_table_csv("pvr_outage", table);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("note: 'never' = no successful probe within the %.0f s window.\n"
              "With unscaled timers (RIP 30 s/180 s, OSPF 10 s/40 s hello/dead)\n"
              "the reactive outages are 30x / 20x longer; DRS is unaffected.\n\n",
              base_config("drs").measure.to_seconds());
}

void print_availability_study() {
  std::printf("=== Trace-driven availability study (one 10-server cluster) ===\n");
  cluster::StudyConfig config;
  config.node_count = 10;
  config.params.drs.probe_interval = 100_ms;
  config.params.drs.probe_timeout = 40_ms;
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.params.ospf.hello_interval = 500_ms;
  config.params.ospf.dead_interval = 2_s;
  config.params.ospf.lsa_refresh = 1500_ms;
  config.trace.horizon = 60_s;
  config.trace.failures_per_server = 1.5;
  config.trace.network_share = 1.0;  // only network failures exercise routing
  config.trace.backplane_share = 0.15;
  config.trace.mean_repair = 5_s;
  config.trace.seed = 0xD2;
  config.warmup = 2_s;

  util::Table table({"protocol", "requests", "success rate", "outages",
                     "longest outage", "total outage", "protocol msgs"});
  for (const auto& result : cluster::run_comparative_study(config)) {
    table.add_row({result.policy,
                   std::to_string(result.workload.requests_sent),
                   util::format_double(result.workload.success_rate(), 6),
                   std::to_string(result.availability.outages().size()),
                   util::to_string(result.availability.longest_outage()),
                   util::to_string(result.availability.total_outage()),
                   std::to_string(result.protocol_messages)});
  }
  util::export_table_csv("pvr_availability", table);
  std::printf("%s\n", table.to_text().c_str());
}

void BM_DrsScenario(benchmark::State& state) {
  auto config = base_config("drs");
  config.warmup = 1_s;
  config.measure = 2_s;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::run_failure_scenario(
        config, {net::ClusterNetwork::nic_component(1, 0)}));
  }
}
BENCHMARK(BM_DrsScenario)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_outage_comparison();
  print_availability_study();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
