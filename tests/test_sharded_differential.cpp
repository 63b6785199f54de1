// Golden pin of the sharded fleet at every shard count.
//
// Every scenario runs on a cluster::ShardedFleet twice per shard count in
// {1, 2, 4, 8}, traced and untraced, with identical configs and identical
// injection schedules. Each run reduces to one line of
// tests/golden/fleet_corpus.txt. A traced run must reproduce its line
// exactly; an untraced run (trace_capacity = 0: no journal, no window merge)
// has no trace, so it must reproduce every field after the trace fields.
// The file was frozen from a
// single-simulator fleet (one queue holding every event, one tracer), so
// the lines pin the sharded runs to that canonical order:
//   - the protocol-trace event count and per-kind counts, and the FNV-1a-64
//     of the canonical trace JSON (every TraceEventKind except
//     kQueueHighWater, which reports per-queue occupancy and is per-shard by
//     design) — send instants, ordering, and payload fields must match to
//     the nanosecond;
//   - the FNV-1a-64 of the metric snapshot minus the sim./arena./shard./
//     engine. prefixes (event slots, arena chunks and friends measure
//     per-queue populations, which sharding intentionally changes);
//   - the probe total and the pristine flag.
//
// The corpus covers 22 scenarios across four shapes: healthy fleets of
// varying geometry, targeted component failures (cluster NICs and
// backplanes, gateway NICs, the shared relay hub — failed and healed — and
// a lossy relay, alone and with an outage), seeded chaos schedules over the
// fleet's flat component space, and the 27-cluster fleet_smoke deployment
// shape. docs/SHARDING.md explains why equality is exact rather than
// statistical.
//
// To regenerate from the 1-shard runs (only for an intentional protocol
// change):
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_sharded_differential
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "cluster/partition.hpp"
#include "corpus_golden.hpp"
#include "net/failure.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace drs {
namespace {

constexpr const char* kGoldenName = "fleet_corpus.txt";

/// One scenario's corpus line: "<label> events=... kinds=... trace_fnv=...
/// metrics_fnv=... probes_sent=... pristine=...".
std::string corpus_line(const std::string& label,
                        const std::vector<obs::TraceEvent>& trace,
                        const obs::MetricRegistry& registry,
                        std::uint64_t probes_sent, bool pristine) {
  const std::string metrics = golden::strip_metric_prefixes(
      registry.to_json(), {"sim.", "arena.", "shard.", "engine."});
  return label + ' ' + golden::trace_summary(golden::protocol_events(trace)) +
         " metrics_fnv=" + util::to_hex64(util::fnv1a64(metrics)) +
         " probes_sent=" + std::to_string(probes_sent) +
         " pristine=" + (pristine ? "1" : "0");
}

std::string golden_path() {
  return std::string(DRS_GOLDEN_DIR) + "/" + kGoldenName;
}

struct Scenario {
  std::string name;
  cluster::FleetConfig fleet;
  std::vector<net::FailureAction> actions;  // scheduled after start()
  util::Duration run = util::Duration::seconds(1);
};

cluster::FleetConfig fleet_config(std::uint16_t clusters,
                                  std::uint16_t nodes) {
  cluster::FleetConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

std::string run_sharded(const Scenario& scenario, std::uint32_t shards,
                        bool traced) {
  cluster::ShardedFleetConfig config;
  config.fleet = scenario.fleet;
  config.shards = shards;
  config.trace_capacity = traced ? std::size_t{1} << 16 : 0;
  config.check_windows = true;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  for (const net::FailureAction& action : scenario.actions) {
    fleet.schedule_component_failure(action.at, action.component, action.fail);
  }
  fleet.run_until(util::SimTime::zero() + scenario.run);
  EXPECT_EQ(fleet.engine().window_violations(), 0u) << scenario.name;
  // EOT conservativeness across the whole corpus: adaptive windows are on by
  // default, and no cross-shard arrival may land in sim-time its destination
  // shard could already have executed past.
  EXPECT_GE(fleet.engine().min_foreign_margin_ns(), 0) << scenario.name;
  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  return corpus_line(scenario.name, fleet.merged_trace(), registry,
                     fleet.total_probes_sent(), fleet.all_pristine());
}

/// The fields after the trace fields: " metrics_fnv=... pristine=...".
std::string untraced_fields(const std::string& line) {
  const std::size_t at = line.find(" metrics_fnv=");
  return at == std::string::npos ? line : line.substr(at);
}

void run_scenario(const Scenario& scenario) {
  SCOPED_TRACE(scenario.name);
  std::string golden_line;
  for (const auto& [label, text] : golden::read_lines(golden_path())) {
    if (label == scenario.name) golden_line = text;
  }
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const std::string at = " @" + std::to_string(shards);
    const std::string line = run_sharded(scenario, shards, /*traced=*/true);
    if (shards == 1 && golden::updating()) {
      golden::update_line(golden_path(), line);
      golden_line = line;
    }
    golden::expect_line(golden_path(), line, "traced ShardedFleet" + at);
    EXPECT_EQ(untraced_fields(run_sharded(scenario, shards, /*traced=*/false)),
              untraced_fields(golden_line))
        << "untraced ShardedFleet" << at << " drifted from " << golden_path();
  }
}

util::SimTime at_ms(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

// -- shape 1: healthy fleets of varying geometry (5 scenarios) ---------------

TEST(ShardedDifferential, HealthyFleets) {
  run_scenario({"healthy-k2-n4", fleet_config(2, 4), {},
                util::Duration::millis(1200)});
  run_scenario({"healthy-k3-n4", fleet_config(3, 4), {},
                util::Duration::millis(1000)});
  run_scenario({"healthy-k4-n4", fleet_config(4, 4), {},
                util::Duration::millis(800)});
  run_scenario({"healthy-k5-n4", fleet_config(5, 4), {},
                util::Duration::millis(600)});
  run_scenario({"healthy-k6-n6", fleet_config(6, 6), {},
                util::Duration::millis(500)});
}

// -- shape 2: targeted component failures (9 scenarios) ----------------------

TEST(ShardedDifferential, TargetedFailures) {
  {
    // A cluster-internal NIC outage with recovery: purely shard-local churn.
    Scenario s{"cluster-nic-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    s.actions = {{at_ms(400), 0, true}, {at_ms(1000), 0, false}};
    run_scenario(s);
  }
  {
    // One cluster's backplane A dies and heals (local index 2n+0).
    Scenario s{"cluster-backplane-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex stride = 2u * 4u + 2u;
    s.actions = {{at_ms(400), 2u * stride + 2u * 4u, true},
                 {at_ms(1100), 2u * stride + 2u * 4u, false}};
    run_scenario(s);
  }
  {
    // Gateway NIC outage with recovery: echo-mesh timeouts on both sides of
    // the relay, then healing.
    Scenario s{"gateway-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex gateway1 = 4u * (2u * 4u + 2u) + 1u;
    s.actions = {{at_ms(400), gateway1, true}, {at_ms(1000), gateway1, false}};
    run_scenario(s);
  }
  {
    // Gateway NIC failed for the rest of the run.
    Scenario s{"gateway-permanent", fleet_config(3, 4), {},
               util::Duration::millis(1500)};
    const net::ComponentIndex gateway0 = 3u * (2u * 4u + 2u);
    s.actions = {{at_ms(500), gateway0, true}};
    run_scenario(s);
  }
  {
    // The shared relay hub dies and heals: the oracle's failure transitions,
    // in-flight loss accounting and dropped_failed counting all engage.
    Scenario s{"relay-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex relay = 4u * (2u * 4u + 2u) + 4u;
    s.actions = {{at_ms(400), relay, true}, {at_ms(1100), relay, false}};
    run_scenario(s);
  }
  {
    // Relay dead for the rest of the run: every later offer drops.
    Scenario s{"relay-permanent", fleet_config(3, 4), {},
               util::Duration::millis(1500)};
    const net::ComponentIndex relay = 3u * (2u * 4u + 2u) + 3u;
    s.actions = {{at_ms(600), relay, true}};
    run_scenario(s);
  }
  {
    // A lossy relay hub: the oracle must draw the loss RNG in exactly the
    // canonical transmit order for every lost echo to match.
    Scenario s{"relay-lossy", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    s.fleet.relay_backplane.frame_loss_rate = 0.05;
    run_scenario(s);
  }
  {
    // The same lossy hub dies and heals: loss draws stop while it is down
    // (failed offers drop before the draw) and resume after the heal.
    Scenario s{"relay-lossy-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    s.fleet.relay_backplane.frame_loss_rate = 0.05;
    const net::ComponentIndex relay = 4u * (2u * 4u + 2u) + 4u;
    s.actions = {{at_ms(400), relay, true}, {at_ms(900), relay, false}};
    run_scenario(s);
  }
  {
    // Overlapping outages across all three component classes.
    Scenario s{"mixed-overlap", fleet_config(5, 4), {},
               util::Duration::millis(2000)};
    const net::ComponentIndex stride = 2u * 4u + 2u;
    const net::ComponentIndex gateway2 = 5u * stride + 2u;
    const net::ComponentIndex relay = 5u * stride + 5u;
    s.actions = {{at_ms(400), 1u * stride + 3u, true},
                 {at_ms(600), relay, true},
                 {at_ms(800), gateway2, true},
                 {at_ms(1000), relay, false},
                 {at_ms(1200), 1u * stride + 3u, false},
                 {at_ms(1400), gateway2, false}};
    run_scenario(s);
  }
}

// -- shape 3: seeded chaos schedules over the flat component space (6) -------

TEST(ShardedDifferential, ChaosSchedules) {
  const cluster::FleetConfig fleet = fleet_config(3, 4);
  const net::ComponentIndex components = 3u * (2u * 4u + 2u) + 3u + 1u;
  chaos::ScheduleConfig schedule_config;
  schedule_config.events = 8;
  schedule_config.start = util::Duration::millis(400);
  schedule_config.min_gap = util::Duration::millis(150);
  schedule_config.max_jitter = util::Duration::millis(50);
  schedule_config.max_concurrent_failures = 3;
  for (std::uint64_t campaign = 0; campaign < 6; ++campaign) {
    const chaos::Schedule schedule = chaos::generate_domain_schedule(
        0x5EEDFA11u, campaign, components, schedule_config);
    Scenario s{"chaos-campaign-" + std::to_string(campaign), fleet,
               schedule.actions,
               (schedule.end - util::SimTime::zero()) +
                   util::Duration::millis(500)};
    run_scenario(s);
  }
}

// -- shape 4: the paper's 27-cluster deployment shape (2 scenarios) ----------

TEST(ShardedDifferential, FleetSmokeShape) {
  run_scenario({"fleet27-healthy", fleet_config(27, 8), {},
                util::Duration::millis(250)});
  {
    Scenario s{"fleet27-relay-blip", fleet_config(27, 8), {},
               util::Duration::millis(250)};
    const net::ComponentIndex stride = 2u * 8u + 2u;
    const net::ComponentIndex relay = 27u * stride + 27u;
    const net::ComponentIndex gateway13 = 27u * stride + 13u;
    s.actions = {{at_ms(80), relay, true},
                 {at_ms(120), gateway13, true},
                 {at_ms(140), relay, false},
                 {at_ms(200), gateway13, false}};
    run_scenario(s);
  }
}

}  // namespace
}  // namespace drs
