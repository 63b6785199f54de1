// Simulation-core microbenchmarks: the event-throughput numbers everything
// else multiplies (docs/PERFORMANCE.md).
//
// Four tiers, cheapest first:
//   queue       raw EventQueue schedule/pop and schedule/cancel loops
//   probe storm a full DRS cluster (N daemons full-mesh probing on two
//               networks) run for a fixed simulated span — the N=90 shape is
//               the paper's proactive-cost anchor and a tracked CI number;
//               N=254, the largest cluster the addressing plan holds,
//               stresses the batched sweep far past the deployed scale
//   fleet       the paper's whole deployment — 27 clusters of 8 plus the
//               inter-cluster relay mesh — at 1/2/4/8 shards in both
//               ordering lanes (plus a dense 8x64 variant): sim_events must
//               agree exactly across all of them — the determinism contract
//               surfacing as a bench invariant, checked before the report
//               is written — while events/s charts the window overhead and
//               windows charts adaptive coalescing
//   chaos batch a sequential slice of the chaos-campaign family, i.e. the
//               workload the survivability results are produced by
//
//   bench_simcore --json-out BENCH_simcore.json
//
// Event counts are deterministic per shape; wall-clock numbers obviously are
// not. The checked-in BENCH_simcore.json is the perf baseline CI compares
// fresh runs against (the median of three runs per gated tier; a >25%
// regression fails). A fleet tier whose rows disagree on sim_events exits 1.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/runner.hpp"
#include "cluster/partition.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace drs;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

// --- tier 1: raw queue ------------------------------------------------------

struct QueueNumbers {
  double push_pop_ns = 0.0;  // per event, schedule + pop + dispatch
  double cancel_ns = 0.0;    // per op, schedule + cancel
  std::uint64_t events = 0;
};

QueueNumbers measure_queue(std::uint64_t seed) {
  QueueNumbers numbers;
  constexpr std::uint64_t kEvents = 400'000;
  constexpr std::uint64_t kWindowNs = 2'000'000;  // spread within 2 ms of now

  {
    // Schedule/pop: keep a rolling window of pending events, like a running
    // simulation does (timeouts armed ahead, popped in time order).
    sim::EventQueue queue;
    util::Rng rng(seed, 1);
    std::uint64_t fired = 0;
    util::SimTime now = util::SimTime::zero();
    const double t0 = now_seconds();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto t = now + util::Duration::nanos(static_cast<std::int64_t>(
                               rng.next_below(kWindowNs)));
      queue.push(t, [&fired] { ++fired; });
      if (queue.size() >= 1024) {
        auto popped = queue.pop();
        now = popped.time;
        popped.fn();
      }
    }
    while (!queue.empty()) {
      auto popped = queue.pop();
      popped.fn();
    }
    const double t1 = now_seconds();
    benchmark::DoNotOptimize(fired);
    numbers.push_pop_ns = (t1 - t0) * 1e9 / static_cast<double>(kEvents);
    numbers.events = fired;
  }

  {
    // Schedule/cancel: the probe-timeout lifecycle — almost every timeout is
    // cancelled by the reply before it fires.
    sim::EventQueue queue;
    util::Rng rng(seed, 2);
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    std::uint64_t cancelled = 0;
    const double t0 = now_seconds();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto t = util::SimTime::from_ns(static_cast<std::int64_t>(
          i * 16 + rng.next_below(kWindowNs)));
      ids.push_back(queue.push(t, [] {}));
      if (ids.size() == 1024) {
        for (sim::EventId id : ids) cancelled += queue.cancel(id) ? 1u : 0u;
        ids.clear();
      }
    }
    for (sim::EventId id : ids) cancelled += queue.cancel(id) ? 1u : 0u;
    const double t1 = now_seconds();
    benchmark::DoNotOptimize(cancelled);
    numbers.cancel_ns = (t1 - t0) * 1e9 / static_cast<double>(kEvents);
  }
  return numbers;
}

// --- tier 2: full-mesh probe storm ------------------------------------------

struct StormNumbers {
  std::uint16_t nodes = 0;
  std::uint64_t sim_events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

StormNumbers run_probe_storm(std::uint16_t nodes, util::Duration span) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = nodes, .backplane = {}});
  core::DrsSystem system(network, chaos::fast_campaign_drs_config());
  system.start();
  const double t0 = now_seconds();
  sim.run_for(span);
  const double t1 = now_seconds();
  system.stop();

  StormNumbers numbers;
  numbers.nodes = nodes;
  numbers.sim_events = sim.executed_events();
  numbers.wall_seconds = t1 - t0;
  numbers.events_per_sec =
      numbers.wall_seconds > 0.0
          ? static_cast<double>(numbers.sim_events) / numbers.wall_seconds
          : 0.0;
  return numbers;
}

// --- tier 3: fleet topology ------------------------------------------------

struct ShardedFleetNumbers {
  std::uint32_t shards = 0;
  const char* ordering = "certified";
  std::uint64_t sim_events = 0;
  std::uint64_t windows = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

ShardedFleetNumbers run_fleet_sharded(std::uint16_t clusters,
                                      std::uint16_t nodes,
                                      util::Duration span,
                                      std::uint32_t shards,
                                      sim::Ordering ordering) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = clusters;
  config.fleet.nodes_per_cluster = nodes;
  config.shards = shards;
  // Untraced on purpose: the tiers measure engine overhead, not ring-buffer
  // writes.
  config.trace_capacity = 0;
  config.ordering = ordering;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  const double t0 = now_seconds();
  fleet.run_until(util::SimTime::zero() + span);
  const double t1 = now_seconds();

  ShardedFleetNumbers numbers;
  numbers.shards = shards;
  numbers.ordering =
      ordering == sim::Ordering::kCertified ? "certified" : "counter-equal";
  numbers.sim_events = fleet.engine().events_executed();
  numbers.windows = fleet.engine().windows_run();
  numbers.wall_seconds = t1 - t0;
  numbers.events_per_sec =
      numbers.wall_seconds > 0.0
          ? static_cast<double>(numbers.sim_events) / numbers.wall_seconds
          : 0.0;
  return numbers;
}

/// True when every row of a fleet tier executed the same number of events;
/// prints the first disagreeing row otherwise.
bool rows_agree(const char* tier,
                const std::vector<ShardedFleetNumbers>& rows) {
  for (const ShardedFleetNumbers& run : rows) {
    if (run.sim_events == rows.front().sim_events) continue;
    std::fprintf(stderr,
                 "%s: %s@%u executed %llu events but %s@%u executed %llu; "
                 "the shard count or lane changed the simulation\n",
                 tier, rows.front().ordering, rows.front().shards,
                 static_cast<unsigned long long>(rows.front().sim_events),
                 run.ordering, run.shards,
                 static_cast<unsigned long long>(run.sim_events));
    return false;
  }
  return true;
}

// --- tier 4: chaos-campaign batch -------------------------------------------

struct ChaosNumbers {
  std::uint64_t campaigns = 0;
  std::uint64_t sim_events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

ChaosNumbers run_chaos_batch(std::uint64_t seed, std::uint64_t campaigns) {
  chaos::ChaosOptions options;
  options.seed = seed;
  options.campaigns = campaigns;
  options.threads = 1;  // single worker: a clean per-core throughput number
  const double t0 = now_seconds();
  const chaos::ChaosReport report = run_chaos(options);
  const double t1 = now_seconds();

  ChaosNumbers numbers;
  numbers.campaigns = campaigns;
  numbers.sim_events = report.sim_events;
  numbers.wall_seconds = t1 - t0;
  numbers.events_per_sec =
      numbers.wall_seconds > 0.0
          ? static_cast<double>(numbers.sim_events) / numbers.wall_seconds
          : 0.0;
  return numbers;
}

// --- report -----------------------------------------------------------------

std::string to_json(const QueueNumbers& queue,
                    const std::vector<StormNumbers>& storms,
                    const std::vector<ShardedFleetNumbers>& sharded,
                    const std::vector<ShardedFleetNumbers>& sharded_dense,
                    const ChaosNumbers& chaos_batch) {
  util::JsonWriter json;
  json.begin_object();
  json.field("schema", "bench_simcore.v5");
  json.key("queue");
  json.begin_object()
      .field("push_pop_ns_per_event", queue.push_pop_ns)
      .field("cancel_ns_per_op", queue.cancel_ns)
      .field("events", queue.events)
      .end_object();
  json.key("probe_storm");
  json.begin_array();
  for (const StormNumbers& storm : storms) {
    json.begin_object()
        .field("nodes", static_cast<std::uint64_t>(storm.nodes))
        .field("sim_events", storm.sim_events)
        .field("wall_seconds", storm.wall_seconds)
        .field("events_per_sec", storm.events_per_sec)
        .end_object();
  }
  json.end_array();
  json.key("fleet_sharded");
  json.begin_array();
  for (const ShardedFleetNumbers& run : sharded) {
    json.begin_object()
        .field("shards", static_cast<std::uint64_t>(run.shards))
        .field("ordering", run.ordering)
        .field("sim_events", run.sim_events)
        .field("windows", run.windows)
        .field("wall_seconds", run.wall_seconds)
        .field("events_per_sec", run.events_per_sec)
        .end_object();
  }
  json.end_array();
  json.key("fleet_sharded_dense");
  json.begin_array();
  for (const ShardedFleetNumbers& run : sharded_dense) {
    json.begin_object()
        .field("shards", static_cast<std::uint64_t>(run.shards))
        .field("ordering", run.ordering)
        .field("sim_events", run.sim_events)
        .field("windows", run.windows)
        .field("wall_seconds", run.wall_seconds)
        .field("events_per_sec", run.events_per_sec)
        .end_object();
  }
  json.end_array();
  json.key("chaos_batch");
  json.begin_object()
      .field("campaigns", chaos_batch.campaigns)
      .field("sim_events", chaos_batch.sim_events)
      .field("wall_seconds", chaos_batch.wall_seconds)
      .field("events_per_sec", chaos_batch.events_per_sec)
      .end_object();
  json.end_object();
  return json.str();
}

// Timing kernels for --timing (google-benchmark's statistics complement the
// one-shot numbers above).
void BM_QueueSchedulePop(benchmark::State& state) {
  sim::EventQueue queue;
  util::Rng rng(7, 1);
  std::uint64_t fired = 0;
  util::SimTime now = util::SimTime::zero();
  for (auto _ : state) {
    const auto t = now + util::Duration::nanos(
                             static_cast<std::int64_t>(rng.next_below(1 << 20)));
    queue.push(t, [&fired] { ++fired; });
    if (queue.size() >= 1024) {
      auto popped = queue.pop();
      now = popped.time;
      popped.fn();
    }
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_QueueSchedulePop);

void BM_ProbeStorm90(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_probe_storm(90, util::Duration::millis(100)).sim_events);
  }
}
BENCHMARK(BM_ProbeStorm90)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(
      argc, argv,
      {{"seed", "seed for the queue microbench streams (default 7)"},
       {"storm-span-ms", "simulated span per probe storm (default 500)"},
       {"chaos-campaigns", "campaigns in the chaos batch (default 50)"},
       {"ordering",
        "restrict the sharded-fleet tiers to one lane: certified or "
        "counter-equal (default: both)"},
       {"json-out", "write the canonical JSON report to this path"},
       {"timing", "also run google-benchmark timing kernels"}});
  if (!flags) return 1;
  if (flags->help_requested()) return 0;

  const std::string ordering_flag = flags->get_string("ordering", "");
  if (!ordering_flag.empty() && ordering_flag != "certified" &&
      ordering_flag != "counter-equal") {
    std::fprintf(stderr,
                 "--ordering must be `certified` or `counter-equal`, got "
                 "`%s`\n",
                 ordering_flag.c_str());
    return 1;
  }

  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", 7));
  const auto span =
      util::Duration::millis(flags->get_int("storm-span-ms", 500));
  const auto campaigns =
      static_cast<std::uint64_t>(flags->get_int("chaos-campaigns", 50));

  std::printf("=== sim-core microbenchmarks ===\n");
  const QueueNumbers queue = measure_queue(seed);
  std::printf("queue: %.1f ns/event schedule+pop, %.1f ns/op schedule+cancel\n",
              queue.push_pop_ns, queue.cancel_ns);

  std::vector<StormNumbers> storms;
  util::Table table({"nodes", "sim events", "wall ms", "events/s"});
  for (const std::uint16_t nodes :
       {std::uint16_t{8}, std::uint16_t{32}, std::uint16_t{90},
        net::ClusterNetwork::kMaxNodes}) {
    storms.push_back(run_probe_storm(nodes, span));
    const StormNumbers& storm = storms.back();
    char wall[32], rate[32];
    std::snprintf(wall, sizeof wall, "%.1f", storm.wall_seconds * 1e3);
    std::snprintf(rate, sizeof rate, "%.0f", storm.events_per_sec);
    table.add_row({std::to_string(storm.nodes),
                   std::to_string(storm.sim_events), wall, rate});
  }
  util::export_table_csv("simcore_probe_storm", table);
  std::printf("%s\n", table.to_text().c_str());

  // The paper's deployment shape in both ordering lanes (unless --ordering
  // restricts to one). sim_events is identical across shard counts AND
  // lanes (the determinism contract); only wall clock moves, so events/s is
  // a clean speedup axis.
  std::vector<sim::Ordering> orderings;
  if (ordering_flag.empty() || ordering_flag == "certified") {
    orderings.push_back(sim::Ordering::kCertified);
  }
  if (ordering_flag.empty() || ordering_flag == "counter-equal") {
    orderings.push_back(sim::Ordering::kCounterEqual);
  }
  std::vector<ShardedFleetNumbers> sharded;
  util::Table sharded_table({"shards", "ordering", "sim events", "windows",
                             "wall ms", "events/s"});
  for (const sim::Ordering ordering : orderings) {
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      sharded.push_back(run_fleet_sharded(27, 8, util::Duration::seconds(2),
                                          shards, ordering));
      const ShardedFleetNumbers& run = sharded.back();
      char wall[32], rate[32];
      std::snprintf(wall, sizeof wall, "%.1f", run.wall_seconds * 1e3);
      std::snprintf(rate, sizeof rate, "%.0f", run.events_per_sec);
      sharded_table.add_row({std::to_string(run.shards), run.ordering,
                             std::to_string(run.sim_events),
                             std::to_string(run.windows), wall, rate});
    }
  }
  util::export_table_csv("simcore_fleet_sharded", sharded_table);
  std::printf("fleet (sharded, 27x8):\n%s\n", sharded_table.to_text().c_str());

  // The dense shape: fewer, larger clusters. Probe sweeps are batched per
  // tick, so per-window work is thousands of events instead of dozens —
  // the regime where the worker threads outrun the barrier cost (the sparse
  // 27x8 shape above deliberately shows the opposite regime).
  std::vector<ShardedFleetNumbers> sharded_dense;
  util::Table dense_table({"shards", "ordering", "sim events", "windows",
                           "wall ms", "events/s"});
  for (const sim::Ordering ordering : orderings) {
    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      sharded_dense.push_back(
          run_fleet_sharded(8, 64, util::Duration::seconds(1), shards,
                            ordering));
      const ShardedFleetNumbers& run = sharded_dense.back();
      char wall[32], rate[32];
      std::snprintf(wall, sizeof wall, "%.1f", run.wall_seconds * 1e3);
      std::snprintf(rate, sizeof rate, "%.0f", run.events_per_sec);
      dense_table.add_row({std::to_string(run.shards), run.ordering,
                           std::to_string(run.sim_events),
                           std::to_string(run.windows), wall, rate});
    }
  }
  util::export_table_csv("simcore_fleet_sharded_dense", dense_table);
  std::printf("fleet (sharded, 8x64):\n%s\n", dense_table.to_text().c_str());

  const ChaosNumbers chaos_batch = run_chaos_batch(seed, campaigns);
  std::printf(
      "chaos batch: %llu campaigns, %llu events, %.2f s wall, %.0f events/s\n",
      static_cast<unsigned long long>(chaos_batch.campaigns),
      static_cast<unsigned long long>(chaos_batch.sim_events),
      chaos_batch.wall_seconds, chaos_batch.events_per_sec);

  if (!rows_agree("fleet (sharded, 27x8)", sharded) ||
      !rows_agree("fleet (sharded, 8x64)", sharded_dense)) {
    return 1;
  }

  const std::string report =
      to_json(queue, storms, sharded, sharded_dense, chaos_batch);
  std::printf("=== JSON ===\n%s\n", report.c_str());
  const std::string json_out = flags->get_string("json-out", "");
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open --json-out path: %s\n",
                   json_out.c_str());
      return 1;
    }
    out << report << '\n';
  }

  if (flags->get_bool("timing")) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
