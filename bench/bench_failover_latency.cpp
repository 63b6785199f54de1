// Failover latency anatomy: how fast DRS detects and repairs as a function
// of the probe interval, and whether the repair lands inside one TCP
// retransmission timeout ("server applications are unaware that a network
// failure has occurred").
//
// The probe-interval sweep also demonstrates the paper's trade-off: "if the
// links were not checked frequently, the DRS would become equivalent to a
// reactive routing protocol" — slower probing costs less bandwidth but
// pushes the outage towards reactive-protocol territory.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/system.hpp"
#include "cost/cost_model.hpp"
#include "net/failure.hpp"
#include "policy/comparison.hpp"
#include "proto/tcp_lite.hpp"
#include "util/table.hpp"

namespace {

using namespace drs;
using namespace drs::util::literals;

void print_probe_interval_sweep() {
  std::printf("=== DRS outage vs probe interval (12 nodes, peer NIC failure) ===\n");
  cost::CostModel cost_model;
  util::Table table({"probe interval", "app outage", "probes lost",
                     "monitoring bandwidth (N=12)"});
  for (auto interval : {25_ms, 50_ms, 100_ms, 200_ms, 500_ms, 1000_ms}) {
    policy::ScenarioConfig config;
    config.node_count = 12;
    config.policy = "drs";
    config.params.drs.probe_interval = interval;
    config.params.drs.probe_timeout = std::min(interval / 2, 100_ms);
    config.warmup = interval * 4 + 1_s;
    config.measure = interval * 6 + 2_s;
    const auto result = policy::run_failure_scenario(
        config, {net::ClusterNetwork::nic_component(1, 0)});
    table.add_row({util::to_string(interval),
                   result.recovered
                       ? util::to_string(result.app_outage)
                       : std::string("never"),
                   std::to_string(result.probes_lost),
                   util::format_double(
                       cost_model.utilization(12, interval) * 100, 4) + " %"});
  }
  util::export_table_csv("failover_probe_interval", table);
  std::printf("%s\n", table.to_text().c_str());
}

void print_adaptive_timeout() {
  std::printf("=== Adaptive (RTT-derived) probe timeout vs fixed ===\n");
  util::Table table({"mode", "probe timeout in force", "app outage"});
  for (bool adaptive : {false, true}) {
    policy::ScenarioConfig config;
    config.node_count = 12;
    config.policy = "drs";
    config.params.drs.probe_interval = 100_ms;
    config.params.drs.probe_timeout = 80_ms;
    config.params.drs.adaptive_timeout = adaptive;
    config.params.drs.min_probe_timeout = 2_ms;
    config.warmup = 2_s;
    config.measure = 3_s;
    const auto result = policy::run_failure_scenario(
        config, {net::ClusterNetwork::nic_component(1, 0)});
    table.add_row({adaptive ? "adaptive" : "fixed",
                   adaptive ? "~2 ms (floor; LAN rtt is tens of us)" : "80 ms",
                   result.recovered ? util::to_string(result.app_outage)
                                    : std::string("never")});
  }
  util::export_table_csv("failover_adaptive_timeout", table);
  std::printf("%s\n", table.to_text().c_str());
}

void print_detection_vs_repair() {
  std::printf("=== Detection vs repair latency decomposition ===\n");
  util::Table table({"failure", "injected at", "link declared down", "first fix",
                     "detection", "repair tail"});
  struct Case {
    const char* name;
    std::vector<net::ComponentIndex> components;
  };
  for (const Case& c : {Case{"peer NIC", {net::ClusterNetwork::nic_component(1, 0)}},
                        Case{"cross split",
                             {net::ClusterNetwork::nic_component(0, 1),
                              net::ClusterNetwork::nic_component(1, 0)}}}) {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 8, .backplane = {}});
    core::DrsConfig drs_config;
    drs_config.probe_interval = 100_ms;
    drs_config.probe_timeout = 40_ms;
    core::DrsSystem system(network, drs_config);
    system.start();
    sim.run_for(2_s);
    const util::SimTime injected = sim.now();
    for (auto component : c.components) {
      network.set_component_failed(component, true);
    }
    sim.run_for(3_s);

    util::SimTime detected = util::SimTime::max();
    for (const auto& t : system.daemon(0).links().history()) {
      if (t.to == core::LinkState::kDown && t.at >= injected) {
        detected = std::min(detected, t.at);
      }
    }
    util::SimTime fixed = util::SimTime::max();
    for (const auto& change : system.daemon(0).metrics().route_changes) {
      if (change.at >= injected &&
          change.to != core::PeerRouteMode::kUnreachable) {
        fixed = std::min(fixed, change.at);
      }
    }
    table.add_row({c.name, util::to_string(injected), util::to_string(detected),
                   util::to_string(fixed), util::to_string(detected - injected),
                   util::to_string(fixed - detected)});
  }
  util::export_table_csv("failover_detection_repair", table);
  std::printf("%s\n", table.to_text().c_str());
}

void print_tcp_transparency() {
  std::printf("=== TCP transparency: failover inside the retransmission window ===\n");
  util::Table table({"probe interval", "tcp stall (max delivery gap)",
                     "retransmissions", "connection"});
  for (auto interval : {50_ms, 100_ms, 250_ms}) {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 8, .backplane = {}});
    core::DrsConfig drs_config;
    drs_config.probe_interval = interval;
    drs_config.probe_timeout = std::min(interval / 2, 100_ms);
    core::DrsSystem system(network, drs_config);
    system.start();

    proto::TcpService tcp0(network.host(0));
    proto::TcpService tcp1(network.host(1));
    proto::TcpConnectionPtr server;
    tcp1.listen(80, [&](proto::TcpConnectionPtr c) { server = c; });
    auto client = tcp0.connect(net::cluster_ip(0, 1), 80);
    sim.run_for(1_s);
    client->offer(2'000'000);
    // Fail the peer's primary NIC mid-transfer.
    sim.schedule_after(20_ms, [&] {
      network.host(1).nic(0).set_failed(true);
    });
    sim.run_for(20_s);
    table.add_row(
        {util::to_string(interval),
         server ? util::to_string(server->stats().max_delivery_gap) : "-",
         std::to_string(client->stats().retransmissions),
         client->state() == proto::TcpConnection::State::kEstablished &&
                 server && server->stats().bytes_delivered == 2'000'000u
             ? "survived, transfer complete"
             : "DEGRADED"});
  }
  util::export_table_csv("failover_tcp_transparency", table);
  std::printf("%s\n", table.to_text().c_str());
  std::printf("(static routing on the same failure: the transfer stalls until\n"
              " TCP exhausts its retries and resets — see test_proto_tcp.)\n\n");
}

void BM_DetectionLatency(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 8, .backplane = {}});
    core::DrsConfig drs_config;
    drs_config.probe_interval = 50_ms;
    core::DrsSystem system(network, drs_config);
    system.start();
    sim.run_for(500_ms);
    network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
    sim.run_for(500_ms);
    benchmark::DoNotOptimize(system.daemon(0).metrics().links_declared_down);
  }
}
BENCHMARK(BM_DetectionLatency)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_probe_interval_sweep();
  print_adaptive_timeout();
  print_detection_vs_repair();
  print_tcp_transparency();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
