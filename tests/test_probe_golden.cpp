// Golden pin of the phase-1 probe sweep.
//
// The sweep drives a cycle's probes from one cursor event per daemon and
// expires them from one shared scan event; every send and every expiry pops
// at a claimed-rank queue position. tests/golden/probe_corpus.txt freezes
// the output of the scheduler it replaced (one wheel event per (peer,
// network) probe send plus one managed timeout event per probe) over a
// 20-scenario corpus, one line per scenario, and the sweep must reproduce
// each line exactly. The corpus covers three shapes: healthy clusters of
// varying size, single-NIC failures with recovery, and full scripted chaos
// campaigns.
//
// Each line holds the protocol-trace event count and per-kind counts, the
// FNV-1a-64 of the canonical trace JSON (every kind including the ping_sent
// flood, so send instants and ordering match to the nanosecond) and of the
// metric snapshot, the probe and control-message totals, every failover
// latency and the final pristine verdict.
//
// Two deliberate exclusions, both sim-layer observability rather than
// protocol behavior:
//   - queue_high_water trace events report the *event-queue population*,
//     which the sweep shrinks by design; they are filtered out.
//   - "sim."-prefixed metrics (event slots, scheduled/executed counts)
//     measure the same population and are stripped from snapshots.
// Everything the protocol can observe — probes, verdicts, detours, leases,
// arena traffic — is pinned.
//
// Known residual (documented in docs/PERFORMANCE.md): claimed-rank replay
// assumes probe deadlines arrive in send order. Adaptive timeouts can
// violate that (a shrinking timeout re-arms the shared scan backward), and
// a foreign event landing on that exact nanosecond can then pop on the
// other side of an expiry. Fixed-timeout configs (this corpus, and the
// shipped defaults) cannot produce that shape.
//
// To regenerate (only for an intentional protocol change):
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_probe_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/system.hpp"
#include "corpus_golden.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace drs {
namespace {

constexpr const char* kGoldenName = "probe_corpus.txt";

std::string join_ns(const std::vector<std::int64_t>& values) {
  std::string out;
  for (const std::int64_t v : values) {
    if (!out.empty()) out += ';';
    out += std::to_string(v);
  }
  return out.empty() ? "-" : out;
}

/// A scenario's corpus line ("<label> <key>=<value> ...") plus the facts
/// the cases assert on directly.
struct Observed {
  std::string line;
  std::uint64_t probes_sent = 0;
  bool pristine = false;
  bool failed_over = false;
};

/// A hand-built cluster scenario: warm up, optionally fail one NIC and heal
/// it, converge. `fail_node < 0` keeps the cluster healthy throughout.
Observed run_cluster(const std::string& label, std::uint16_t n,
                     int fail_node) {
  sim::Simulator sim;
  obs::Tracer tracer(std::size_t{1} << 18);
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(sim, {.node_count = n, .backplane = {}});
  core::DrsSystem system(network, chaos::fast_campaign_drs_config());
  system.start();
  sim.run_for(util::Duration::seconds(1));
  util::SimTime injected = util::SimTime::max();
  if (fail_node >= 0) {
    const net::ComponentIndex nic = net::ClusterNetwork::nic_component(
        static_cast<net::NodeId>(fail_node), 0);
    injected = sim.now();
    network.set_component_failed(nic, true);
    sim.run_for(util::Duration::seconds(2));
    network.set_component_failed(nic, false);
  }
  sim.run_for(util::Duration::seconds(2));

  // Detection latencies (ns since injection) of every post-injection DOWN
  // verdict, in link-history order — empty for healthy runs.
  std::vector<std::int64_t> failover_ns;
  for (net::NodeId i = 0; i < n; ++i) {
    for (const core::LinkTransition& t : system.daemon(i).links().history()) {
      if (t.to == core::LinkState::kDown && t.at >= injected) {
        failover_ns.push_back((t.at - injected).ns());
      }
    }
  }
  obs::MetricRegistry registry;
  core::snapshot_metrics(system, registry);
  const std::string metrics_json =
      golden::strip_metric_prefixes(registry.to_json(), {"sim."});

  Observed observed;
  observed.probes_sent = system.total_probes_sent();
  observed.pristine = system.all_pristine();
  observed.failed_over = !failover_ns.empty();
  const std::uint64_t control = system.total_control_messages();
  system.stop();
  EXPECT_EQ(tracer.evicted(), 0u) << "trace ring too small for n=" << n;
  observed.line =
      label + ' ' +
      golden::trace_summary(golden::protocol_events(tracer.events())) +
      " metrics_fnv=" + util::to_hex64(util::fnv1a64(metrics_json)) +
      " probes_sent=" + std::to_string(observed.probes_sent) +
      " control_messages=" + std::to_string(control) +
      " failover_ns=" + join_ns(failover_ns) +
      " pristine=" + (observed.pristine ? "1" : "0");
  return observed;
}

/// A scripted chaos campaign. run_campaign owns its system, so the line
/// carries the campaign's own counters (actions applied, invariant checks)
/// where the cluster lines carry probe and control-message totals, and has
/// no metric snapshot.
Observed run_chaos(std::uint64_t seed, std::uint64_t campaign) {
  chaos::CampaignConfig config;
  config.capture_trace = true;
  const chaos::CampaignResult result =
      chaos::run_campaign(seed, campaign, config);
  std::vector<std::int64_t> failover_ns;
  for (const double ms : result.failover_latencies_ms) {
    failover_ns.push_back(static_cast<std::int64_t>(ms * 1e6));
  }
  for (const double ms : result.detection_delays_ms) {
    failover_ns.push_back(static_cast<std::int64_t>(ms * 1e6));
  }
  Observed observed;
  observed.pristine = result.violations.empty();
  observed.line =
      "chaos/seed=" + util::to_hex64(seed) + "/campaign=" +
      std::to_string(campaign) + ' ' +
      golden::trace_summary(golden::protocol_events(result.trace)) +
      " actions_applied=" + std::to_string(result.actions_applied) +
      " checks=" + std::to_string(result.checks) +
      " failover_ns=" + join_ns(failover_ns) +
      " pristine=" + (observed.pristine ? "1" : "0");
  return observed;
}

std::string golden_path() {
  return std::string(DRS_GOLDEN_DIR) + "/" + kGoldenName;
}

/// Checks the scenario's line against the golden (DRS_UPDATE_GOLDEN=1
/// rewrites it first).
void expect_golden(const Observed& observed) {
  if (golden::updating()) golden::update_line(golden_path(), observed.line);
  golden::expect_line(golden_path(), observed.line,
                      "scenario " + golden::label_of(observed.line));
}

TEST(ProbeGolden, HealthyClustersMatchGolden) {
  for (const std::uint16_t n : {std::uint16_t{2}, std::uint16_t{3},
                                std::uint16_t{4}, std::uint16_t{5},
                                std::uint16_t{8}, std::uint16_t{12}}) {
    const Observed observed =
        run_cluster("healthy/n=" + std::to_string(n), n, /*fail_node=*/-1);
    expect_golden(observed);
    EXPECT_GT(observed.probes_sent, 0u);
    EXPECT_TRUE(observed.pristine) << n;
    EXPECT_FALSE(observed.failed_over) << n;
  }
}

TEST(ProbeGolden, NicFailuresMatchGolden) {
  for (const std::uint16_t n : {std::uint16_t{3}, std::uint16_t{4},
                                std::uint16_t{5}, std::uint16_t{8},
                                std::uint16_t{9}, std::uint16_t{10}}) {
    const Observed observed =
        run_cluster("nic-failure/n=" + std::to_string(n), n, /*fail_node=*/1);
    expect_golden(observed);
    // The fault must actually bite: every surviving node detects the DOWN.
    EXPECT_TRUE(observed.failed_over) << n;
    EXPECT_TRUE(observed.pristine) << "n=" << n << " did not heal";
  }
}

TEST(ProbeGolden, ChaosCampaignsMatchGolden) {
  for (std::uint64_t campaign = 0; campaign < 8; ++campaign) {
    const Observed observed = run_chaos(0xC4A05ULL, campaign);
    expect_golden(observed);
    EXPECT_TRUE(observed.pristine) << campaign;
  }
}

}  // namespace
}  // namespace drs
