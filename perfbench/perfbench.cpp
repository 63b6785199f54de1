// perfbench: the repository benchmark. One process runs one workload as a
// single client in a closed loop (the next round of work starts only when
// the previous one has finished) for a fixed wall-clock budget, checks every
// output, and prints one JSON result line last:
//
//   perfbench --workload deploy_27x8 --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md in this directory says why each was chosen):
//   deploy_27x8  the paper's 27 x 8 deployment on a 1-shard ShardedFleet
//                with a seeded fault schedule over its component space
//   dense_8x64   a healthy 8 x 64 ShardedFleet on 2 shards
//   chaos_batch  consecutive chaos::run_campaign calls on one reused arena
//   reproduce    Fig. 1-3 and the policy shoot-out via exp::run_experiment
//
// Every layer is measured from outside: by timing calls into its public
// functions and by reading the counters the program already exposes. With
// --trace 1 the rounds alternate untraced and traced; traced rounds record a
// span per public call (kept in memory, written as a Chrome trace at exit)
// and feed the per-layer metrics, and the untraced/traced pair gives the
// tracing overhead. End-to-end metrics come from --trace 0 runs only.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "cluster/partition.hpp"
#include "exp/engine.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace drs;

// --- command line -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output of the traced rounds (empty: not written).
  std::string trace_out;
  /// Source revision for the manifest (run.py passes the git rev or a hash
  /// of the source tree).
  std::string rev = "unknown";
  /// Fleet workloads: simulated span override in seconds (0 = the
  /// workload's own), for the RSS-versus-span observation in README.md.
  double span_s = 0.0;
  /// Self-check: the first operation is judged against one deliberately
  /// wrong expectation and must be counted as failed.
  bool wrong_expectation = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-expectation") {
      args.wrong_expectation = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") end = argv[i];
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--rev") {
      args.rev = value;
    } else if (flag == "--span") {
      args.span_s = std::strtod(value.c_str(), &end);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (args.seconds <= 0.0 || !std::isfinite(args.seconds)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return false;
  }
  return true;
}

// --- statistics ---------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(util::wall_clock_ns() - start_ns) * 1e-9;
}

// --- spans --------------------------------------------------------------------

/// In-memory span log. Every timed call reads the wall clock; only traced
/// rounds keep the span (name, layer, start, end, parent, round).
class SpanLog {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    const char* layer;
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;
    std::uint64_t round;
  };

  void set_recording(bool on, std::uint64_t round) {
    recording_ = on;
    round_ = round;
  }
  bool recording() const { return recording_; }

  /// Runs fn(), returns its wall time in seconds, and records it as a child
  /// of the innermost open span when recording.
  template <class Fn>
  double timed(const char* layer, const char* name, Fn&& fn) {
    const std::int64_t start = util::wall_clock_ns();
    std::size_t id = kNone;
    if (recording_) {
      id = spans_.size();
      spans_.push_back({layer, name, start, 0,
                        open_.empty() ? kNone : open_.back(), round_});
      open_.push_back(id);
    }
    fn();
    const std::int64_t end = util::wall_clock_ns();
    if (id != kNone) {
      spans_[id].end_ns = end;
      open_.pop_back();
    }
    return static_cast<double>(end - start) * 1e-9;
  }

  /// Self time per layer (span duration minus its children's) in `round`.
  std::map<std::string, double> self_seconds(std::uint64_t round) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.round == round && s.parent != kNone) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.round != round) continue;
      self[s.layer] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(
          buf, sizeof buf,
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%lld,\"round\":%llu}}",
          i == 0 ? "" : ",", s.name, s.layer,
          static_cast<double>(s.start_ns - base) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
          s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
          static_cast<unsigned long long>(s.round));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  bool recording_ = false;
  std::uint64_t round_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// --- rounds -------------------------------------------------------------------

/// One round: the workload's fixed amount of work, made of one or more
/// operations (a fleet run, a campaign, a family call).
struct Round {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  /// Latency of every operation whose checks passed.
  std::vector<double> op_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer metrics of this round (counters, ratios, span totals).
  std::map<std::string, double> layer;
};

/// Records one operation's check outcome. A failed check names itself on
/// stderr; the operation's timing is then not a valid sample.
struct Checker {
  std::string op;
  bool ok = true;

  void expect(bool condition, const char* what) {
    if (condition) return;
    ok = false;
    std::fprintf(stderr, "perfbench: check failed (%s): %s\n", op.c_str(),
                 what);
  }
};

struct WorkloadInfo {
  std::string shards;
  std::string ordering;
  std::string size;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual WorkloadInfo info() const = 0;
  /// Runs round `index`; `wrong` asks for one deliberately wrong expectation
  /// on the round's first operation.
  virtual Round run_round(std::uint64_t index, SpanLog& log, bool wrong) = 0;
};

// --- fleet workloads ----------------------------------------------------------

/// Drops "<prefix>..." entries from a canonical metrics JSON: the sim./arena./
/// shard./engine. values are per-queue or wall-clock detail, so the semantic
/// digest excludes them as the sharded differential corpus does.
std::string strip_metric_prefixes(std::string json) {
  for (const char* prefix : {"\"sim.", "\"arena.", "\"shard.", "\"engine."}) {
    std::size_t pos;
    while ((pos = json.find(prefix)) != std::string::npos) {
      const std::size_t colon = json.find(':', pos);
      const std::size_t end = json.find_first_of(",}", colon);
      if (colon == std::string::npos || end == std::string::npos) break;
      if (json[end] == ',') {
        json.erase(pos, end - pos + 1);
      } else {
        const std::size_t begin = json[pos - 1] == ',' ? pos - 1 : pos;
        json.erase(begin, end - begin);
      }
    }
  }
  return json;
}

struct FleetShape {
  std::uint16_t clusters = 0;
  std::uint16_t nodes = 0;
  std::uint32_t shards = 1;
  util::Duration span;
  /// Fail/restore actions drawn from the seed (0 = healthy).
  std::uint64_t faults = 0;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(FleetShape shape, std::uint64_t seed) : shape_(shape) {
    config_.fleet.clusters = shape.clusters;
    config_.fleet.nodes_per_cluster = shape.nodes;
    config_.shards = shape.shards;
    // No protocol tracer: the benchmark's own spans are the trace, and
    // bench_simcore measures the sharded fleet untraced too.
    config_.trace_capacity = 0;
    config_.check_windows = true;
    if (shape.faults > 0) {
      // 40 actions at 0.5-0.6 s spacing end by ~24.4 s, leaving a settle
      // window before the 30 s deadline in which every cluster must return
      // to pristine.
      chaos::ScheduleConfig schedule;
      schedule.events = shape.faults;
      schedule.start = util::Duration::millis(400);
      schedule.min_gap = util::Duration::millis(500);
      schedule.max_jitter = util::Duration::millis(100);
      components_ = static_cast<std::uint32_t>(shape.clusters) *
                        (2u * shape.nodes + 2u) +
                    shape.clusters + 1u;
      actions_ = chaos::generate_domain_schedule(seed, 0, components_, schedule)
                     .actions;
    }
  }

  WorkloadInfo info() const override {
    char size[160];
    std::snprintf(size, sizeof size,
                  "%u clusters x %u nodes, %.3g sim-s, %zu fault actions",
                  shape_.clusters, shape_.nodes, shape_.span.to_seconds(),
                  actions_.size());
    return {std::to_string(shape_.shards), "certified", size};
  }

  Round run_round(std::uint64_t index, SpanLog& log, bool wrong) override {
    Round round;
    round.traced = log.recording();
    cluster::ShardedFleetConfig config = config_;
    config.record_window_spans = round.traced;
    std::unique_ptr<cluster::ShardedFleet> fleet;
    obs::MetricRegistry registry;
    double build_s = 0.0, start_s = 0.0, inject_s = 0.0;

    log.timed("perfbench", "fleet_op", [&] {
      build_s = log.timed("cluster", "ShardedFleet::ShardedFleet", [&] {
        fleet = std::make_unique<cluster::ShardedFleet>(config);
      });
      start_s = log.timed("cluster", "ShardedFleet::start",
                          [&] { fleet->start(); });
      for (const net::FailureAction& action : actions_) {
        inject_s += log.timed(
            "cluster", "ShardedFleet::schedule_component_failure", [&] {
              fleet->schedule_component_failure(action.at, action.component,
                                                action.fail);
            });
      }
      round.run_s = log.timed("cluster", "ShardedFleet::run_until", [&] {
        fleet->run_until(util::SimTime::zero() + shape_.span);
      });
      log.timed("cluster", "ShardedFleet::collect_metrics",
                [&] { fleet->collect_metrics(registry); });
    });
    round.setup_s = build_s + start_s + inject_s;
    round.attempted = 1;

    const sim::ShardedEngine& engine = fleet->engine();
    const std::uint64_t digest =
        util::fnv1a64(strip_metric_prefixes(registry.to_json()));
    const std::uint64_t events = engine.events_executed();
    if (index == 0) {
      expected_digest_ = digest;
      expected_events_ = events;
    }
    Checker check{"fleet round " + std::to_string(index)};
    check.expect(engine.window_violations() == 0, "window_violations == 0");
    check.expect(engine.min_foreign_margin_ns() >= 0,
                 "min_foreign_margin_ns >= 0");
    check.expect(digest == (wrong ? expected_digest_ ^ 1u : expected_digest_),
                 "semantic metrics digest repeats");
    check.expect(events == expected_events_, "executed events repeat");
    check.expect(actions_.empty() || fleet->component_count() == components_,
                 "the schedule spans the fleet's component space");
    check.expect(fleet->all_pristine(), "every cluster pristine at the end");
    bool any_failed = false;
    for (net::ComponentIndex c = 0; c < fleet->component_count(); ++c) {
      any_failed = any_failed || fleet->component_failed(c);
    }
    check.expect(!any_failed, "every component restored at the end");

    // Per-layer counters (Σ over clusters / shards).
    const auto counter = [&](const std::string& name) {
      return static_cast<double>(registry.counter(name).value());
    };
    const auto gauge = [&](const std::string& name) {
      return static_cast<double>(registry.gauge(name).value());
    };
    double probes = 0, probes_failed = 0, installs = 0, control = 0;
    double echoes_sent = 0, echoes_answered = 0;
    for (std::uint16_t c = 0; c < shape_.clusters; ++c) {
      const auto cl = [&](const char* n) {
        return counter(obs::MetricRegistry::scoped("cluster", c, n));
      };
      const auto gw = [&](const char* n) {
        return counter(obs::MetricRegistry::scoped("gateway", c, n));
      };
      probes += cl("probes_sent");
      probes_failed += cl("probes_failed");
      installs += cl("route_installs");
      control += cl("control_messages_sent");
      echoes_sent += gw("echoes_sent");
      echoes_answered += gw("echoes_answered");
    }
    const double relay_frames = counter("relay.frames");
    check.expect(relay_frames > 0 && echoes_answered > 0,
                 "the gateway relay mesh carried traffic");
    if (shape_.faults == 0) {
      check.expect(probes_failed == 0, "a healthy fleet loses no probe");
    }

    double barrier_ns = 0, max_shard = 0, sum_shard = 0;
    for (std::uint32_t s = 0; s < engine.shard_count(); ++s) {
      barrier_ns += static_cast<double>(engine.shard_barrier_wait_ns(s));
      const double e = static_cast<double>(engine.simulator(s).executed_events());
      max_shard = std::max(max_shard, e);
      sum_shard += e;
    }
    const double shards = static_cast<double>(engine.shard_count());
    double active = 0;
    for (const obs::WindowSpan& w : engine.window_spans()) {
      active += w.active_shards;
    }

    std::map<std::string, double>& m = round.layer;
    m["cluster.build_s"] = build_s;
    m["cluster.start_s"] = start_s;
    if (!actions_.empty()) m["cluster.inject_s"] = inject_s;
    m["cluster.run_s"] = round.run_s;
    m["cluster.relay_frames"] = relay_frames;
    m["cluster.relay_delivered_ratio"] = ratio(
        relay_frames - counter("relay.lost_in_flight"),
        relay_frames + counter("relay.dropped_failed"));
    m["sim.events"] = static_cast<double>(events);
    m["sim.ns_per_event"] = ratio(round.run_s * 1e9, static_cast<double>(events));
    m["sim.executed_per_scheduled"] =
        ratio(counter("sim.executed_events"), counter("sim.scheduled_events"));
    m["sim.windows"] = static_cast<double>(engine.windows_run());
    m["sim.events_per_window"] = ratio(static_cast<double>(events),
                                       static_cast<double>(engine.windows_run()));
    m["sim.windows_coalesced"] = static_cast<double>(engine.windows_coalesced());
    m["sim.barrier_wait_share"] = ratio(barrier_ns * 1e-9, shards * round.run_s);
    m["sim.shard_event_skew"] = ratio(max_shard, sum_shard / shards);
    if (round.traced) {
      m["sim.active_shards_mean"] = ratio(
          active, static_cast<double>(engine.window_spans().size()));
    }
    m["sim.event_slots"] = gauge("sim.event_slots");
    m["net.flight_slots"] = gauge("fleet.flight_slots");
    m["util.arena_bytes_reserved"] = gauge("arena.bytes_reserved");
    m["util.arena_freelist_hit_ratio"] =
        ratio(counter("arena.freelist_hits"), counter("arena.allocations"));
    m["core.probes_sent"] = probes;
    m["core.probe_fail_ratio"] = ratio(probes_failed, probes);
    m["core.route_installs"] = installs;
    m["core.control_messages"] = control;
    m["proto.echo_answer_ratio"] = ratio(echoes_answered, echoes_sent);

    log.timed("cluster", "ShardedFleet::~ShardedFleet", [&] { fleet.reset(); });
    if (check.ok) {
      round.op_ms.push_back(round.run_s * 1e3);
    } else {
      round.failed = 1;
    }
    return round;
  }

 private:
  FleetShape shape_;
  cluster::ShardedFleetConfig config_;
  std::uint32_t components_ = 0;
  std::vector<net::FailureAction> actions_;
  std::uint64_t expected_digest_ = 0;
  std::uint64_t expected_events_ = 0;
};

// --- chaos_batch --------------------------------------------------------------

class ChaosWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kBatch = 250;

  explicit ChaosWorkload(std::uint64_t seed) : seed_(seed) {}

  WorkloadInfo info() const override {
    char size[160];
    std::snprintf(size, sizeof size,
                  "%llu campaigns per round after 1 cold-arena campaign, "
                  "default CampaignConfig (%u nodes)",
                  static_cast<unsigned long long>(kBatch),
                  config_.schedule.node_count);
    return {"1 (one thread)", "single simulator", size};
  }

  Round run_round(std::uint64_t /*index*/, SpanLog& log, bool wrong) override {
    Round round;
    round.traced = log.recording();
    double sim_events = 0, campaign_s = 0, checks = 0, actions = 0;
    std::vector<double> schedule_us;
    std::unique_ptr<util::Arena> arena;

    const auto campaign = [&](std::uint64_t i, bool first) {
      chaos::CampaignResult result;
      if (round.traced) {
        // The campaign draws its own schedule; this extra call times that
        // layer boundary on its own.
        schedule_us.push_back(
            1e6 * log.timed("chaos", "generate_schedule", [&] {
              chaos::generate_schedule(seed_, i, config_.schedule);
            }));
      }
      const double s = log.timed("chaos", "run_campaign", [&] {
        if (!first) log.timed("util", "Arena::reset", [&] { arena->reset(); });
        result = chaos::run_campaign(seed_, i, config_, arena.get());
      });
      ++round.attempted;
      Checker check{"campaign " + std::to_string(i)};
      const std::size_t expected_violations = wrong && first ? 1 : 0;
      check.expect(result.violations.size() == expected_violations,
                   "no invariant violation");
      check.expect(result.actions_applied > 0 && result.checks > 0,
                   "the campaign injected faults and ran checks");
      if (!check.ok) ++round.failed;
      sim_events += static_cast<double>(result.sim_events);
      campaign_s += s;
      checks += static_cast<double>(result.checks);
      actions += static_cast<double>(result.actions_applied);
      return check.ok ? s : -1.0;
    };

    // Set-up: a fresh arena and the cold first campaign on it.
    double first_s = 0.0;
    round.setup_s = log.timed("perfbench", "chaos_setup", [&] {
      log.timed("util", "Arena::Arena",
                [&] { arena = std::make_unique<util::Arena>(); });
      first_s = campaign(0, true);
    });
    round.run_s = log.timed("perfbench", "chaos_batch", [&] {
      for (std::uint64_t i = 1; i <= kBatch; ++i) {
        const double s = campaign(i, false);
        if (s >= 0.0) round.op_ms.push_back(s * 1e3);
      }
    });

    std::map<std::string, double>& m = round.layer;
    m["chaos.first_campaign_ms"] = first_s * 1e3;
    m["chaos.campaign_p99_ms"] = quantile(round.op_ms, 0.99);
    if (round.traced) m["chaos.schedule_us_p50"] = median(schedule_us);
    m["chaos.checks"] = checks;
    m["chaos.actions"] = actions;
    m["sim.events"] = sim_events;
    m["sim.ns_per_event"] = ratio(campaign_s * 1e9, sim_events);
    const util::Arena::Stats& stats = arena->stats();
    m["util.arena_bytes_reserved"] = static_cast<double>(stats.bytes_reserved);
    m["util.arena_freelist_hit_ratio"] =
        ratio(static_cast<double>(stats.freelist_hits),
              static_cast<double>(stats.allocations));
    return round;
  }

 private:
  std::uint64_t seed_;
  chaos::CampaignConfig config_;
};

// --- reproduce ----------------------------------------------------------------

/// Rank of `policy` in a shoot-out ranking JSON (rows are ranked best
/// first); npos when absent.
std::size_t ranking_position(const std::string& json, const std::string& policy) {
  return json.find("\"policy\":\"" + policy + "\"");
}

class ReproduceWorkload final : public Workload {
 public:
  explicit ReproduceWorkload(std::uint64_t seed) : seed_(seed) {}

  WorkloadInfo info() const override {
    return {"1 (one engine worker)", "single simulator",
            "fig1_response_time + fig1_measured, fig2_psuccess + "
            "fig2_crossover, fig3_convergence (f 2-10 x 10..1e5 iterations), "
            "policy_shootout n=8; cache off"};
  }

  /// The paper's reproductions, in run order.
  std::vector<exp::ExperimentSpec> specs() const {
    std::vector<exp::ExperimentSpec> out(6);
    out[0].family = "fig1_response_time";
    out[0].grid.bools("preamble", {false})
        .ints("n", {2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
        .doubles("budget", {0.05, 0.10, 0.15, 0.25});
    out[1].family = "fig1_measured";
    out[1].grid.ints("n", {4, 8, 16, 24});
    out[2].family = "fig2_psuccess";
    std::vector<std::int64_t> ns;
    for (std::int64_t n = 2; n <= 64; ++n) ns.push_back(n);
    out[2].grid.ints("n", ns).ints("f", {2, 3, 4, 5, 6, 7, 8, 9, 10});
    out[3].family = "fig2_crossover";
    out[3].grid.ints("f", {2, 3, 4, 5, 6, 7, 8, 9, 10});
    out[4].family = "fig3_convergence";
    out[4].grid.ints("f", {2, 3, 4, 5, 6, 7, 8, 9, 10})
        .ints("iterations", {10, 100, 1000, 10000, 100000});
    out[5].family = "policy_shootout";
    out[5].grid.ints("n", {8});
    for (exp::ExperimentSpec& spec : out) spec.seed = seed_;
    return out;
  }

  Round run_round(std::uint64_t /*index*/, SpanLog& log, bool wrong) override {
    Round round;
    round.traced = log.recording();
    // Set-up: building and expanding the six specs, repeated so the
    // microsecond-scale figure is a median.
    std::vector<double> setups;
    std::vector<exp::ExperimentSpec> built;
    for (int i = 0; i < 25; ++i) {
      // An unknown family is not an error here: its run_experiment call
      // reports it, and that operation counts as failed.
      setups.push_back(log.timed("exp", "build_specs", [&] {
        built = specs();
        for (const exp::ExperimentSpec& spec : built) {
          exp::find_scenario(spec.family);
          exp::expand(spec.grid);
        }
      }));
    }
    round.setup_s = median(setups);

    static const char* const kLayer[] = {"cost",     "cost",       "analytic",
                                         "analytic", "montecarlo", "policy"};
    exp::EngineOptions options;
    options.threads = 1;  // cache_dir stays empty: caching off
    std::map<std::string, double> family_s;
    double trials = 0;
    round.run_s = log.timed("perfbench", "reproduce_pass", [&] {
      for (std::size_t f = 0; f < built.size(); ++f) {
        exp::ExperimentResult result;
        const double s = log.timed(kLayer[f], "run_experiment", [&] {
          result = exp::run_experiment(built[f], options);
        });
        family_s[kLayer[f]] += s;
        ++round.attempted;
        Checker check{built[f].family};
        check.expect(result.ok(), "the spec ran");
        check.expect(result.cache_hits == 0, "no cache hit");
        check_anchors(f, result, check, wrong && f == 3);
        if (f == 4) {
          for (const exp::Cell& cell : result.cells) {
            trials += static_cast<double>(cell.get_int("iterations", 0) *
                                          (63 - cell.get_int("f", 0)));
          }
        }
        if (!check.ok) ++round.failed;
      }
    });
    // The family calls differ in size by five orders of magnitude, so the
    // latency sample is the whole pass.
    if (round.failed == 0) round.op_ms.push_back(round.run_s * 1e3);

    std::map<std::string, double>& m = round.layer;
    m["cost.fig1_s"] = family_s["cost"];
    m["analytic.fig2_s"] = family_s["analytic"];
    m["montecarlo.fig3_s"] = family_s["montecarlo"];
    m["policy.shootout_s"] = family_s["policy"];
    m["montecarlo.trials"] = trials;
    m["montecarlo.ns_per_trial"] = ratio(family_s["montecarlo"] * 1e9, trials);
    return round;
  }

 private:
  /// The paper's anchors, all seed-independent: Fig. 1 at N=90 / 10% budget
  /// answers in ~0.82 s, Fig. 2 crosses P >= 0.99 at N = 18/32/45 for
  /// f = 2/3/4, Fig. 3's MAD shrinks with every tenfold iteration step, and
  /// proactive DRS ranks above reactive RIP and OSPF in the shoot-out.
  static void check_anchors(std::size_t family,
                            const exp::ExperimentResult& result,
                            Checker& check, bool wrong) {
    if (!result.ok()) return;
    switch (family) {
      case 0:
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
          if (result.cells[i].get_int("n", 0) == 90 &&
              result.cells[i].get_double("budget", 0) == 0.10) {
            check.expect(
                std::abs(result.output_double(i, "seconds") - 0.82) < 0.01,
                "Fig. 1: N=90 at 10% budget answers in ~0.82 s");
          }
        }
        break;
      case 1:
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
          check.expect(result.output_int(i, "probes_sent") > 0 &&
                           result.output_int(i, "probes_failed") == 0,
                       "Fig. 1 cross-check: every live probe answered");
        }
        break;
      case 2:
        for (std::size_t i = 0; i < result.cells.size(); ++i) {
          const double p = result.output_double(i, "p");
          check.expect(p >= 0.0 && p <= 1.0, "Fig. 2: P in [0, 1]");
        }
        break;
      case 3: {
        const std::int64_t expected[] = {wrong ? 19 : 18, 32, 45};
        for (std::size_t i = 0; i < 3; ++i) {
          check.expect(result.output_int(i, "n") == expected[i],
                       "Fig. 2: crossovers at N = 18 / 32 / 45");
        }
        break;
      }
      case 4:
        // Cells run f-major, iterations ascending within each f.
        for (std::size_t i = 1; i < result.cells.size(); ++i) {
          if (result.cells[i].get_int("f", 0) !=
              result.cells[i - 1].get_int("f", 0)) {
            continue;
          }
          check.expect(
              result.output_double(i, "mad") < result.output_double(i - 1, "mad"),
              "Fig. 3: MAD shrinks with iterations");
        }
        break;
      case 5: {
        // Rows rank by patterns recovered, then mean outage, then messages.
        const exp::Value* value = result.output(0, "ranking");
        const std::string* ranking =
            value == nullptr ? nullptr : std::get_if<std::string>(value);
        const std::size_t drs =
            ranking == nullptr ? std::string::npos
                               : ranking_position(*ranking, "drs");
        check.expect(drs != std::string::npos &&
                         drs < ranking_position(*ranking, "rip") &&
                         drs < ranking_position(*ranking, "ospf"),
                     "shoot-out: proactive DRS ranks above reactive RIP/OSPF");
        check.expect(result.output_int(0, "patterns") > 0, "shoot-out: corpus");
        break;
      }
      default:
        break;
    }
  }

  std::uint64_t seed_;
};

// --- report -------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every per-layer metric BENCHMARK.json declares. A traced run reports all
/// of them on every workload; one whose layer the workload never calls (no
/// span, no counter) reads 0.
constexpr const char* kLayerMetrics[] = {
    "cluster.build_s", "cluster.start_s", "cluster.inject_s", "cluster.run_s",
    "cluster.relay_frames", "cluster.relay_delivered_ratio", "sim.events",
    "sim.ns_per_event", "sim.executed_per_scheduled", "sim.windows",
    "sim.events_per_window", "sim.windows_coalesced", "sim.barrier_wait_share",
    "sim.shard_event_skew", "sim.active_shards_mean", "sim.event_slots",
    "net.flight_slots", "util.arena_bytes_reserved",
    "util.arena_freelist_hit_ratio", "core.probes_sent",
    "core.probe_fail_ratio", "core.route_installs", "core.control_messages",
    "proto.echo_answer_ratio", "chaos.campaign_p99_ms",
    "chaos.first_campaign_ms", "chaos.schedule_us_p50", "chaos.checks",
    "chaos.actions", "cost.fig1_s", "analytic.fig2_s", "montecarlo.fig3_s",
    "policy.shootout_s", "montecarlo.trials", "montecarlo.ns_per_trial",
    "obs.trace_overhead", "cluster.self_s", "chaos.self_s", "util.self_s",
    "exp.self_s", "cost.self_s", "analytic.self_s", "montecarlo.self_s",
    "policy.self_s", "perfbench.self_s"};

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_s")) return "s";
  if (ends("_ms")) return "ms";
  if (ends("_us_p50")) return "us";
  if (ends("ns_per_event") || ends("ns_per_trial")) return "ns";
  if (ends("_bytes_reserved")) return "bytes";
  if (ends("ratio") || ends("share") || ends("overhead") ||
      ends("per_scheduled") || ends("skew") || ends("per_window") ||
      ends("shards_mean")) {
    return "ratio";
  }
  return "count";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  const auto span = [&](double fallback) {
    return util::Duration::from_seconds(args.span_s > 0.0 ? args.span_s
                                                           : fallback);
  };
  if (args.workload == "deploy_27x8") {
    return std::make_unique<FleetWorkload>(
        FleetShape{27, 8, 1, span(30.0), 40}, args.seed);
  }
  if (args.workload == "dense_8x64") {
    return std::make_unique<FleetWorkload>(FleetShape{8, 64, 2, span(3.0), 0},
                                           args.seed);
  }
  if (args.workload == "chaos_batch") {
    return std::make_unique<ChaosWorkload>(args.seed);
  }
  if (args.workload == "reproduce") {
    return std::make_unique<ReproduceWorkload>(args.seed);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) {
    std::fprintf(stderr,
                 "perfbench: unknown workload '%s' (deploy_27x8, dense_8x64, "
                 "chaos_batch, reproduce)\n",
                 args.workload.c_str());
    return 2;
  }

  // Closed loop: rounds back to back until the budget is spent; a traced
  // run alternates untraced and traced rounds and runs at least one of each.
  SpanLog log;
  std::vector<Round> rounds;
  const std::int64_t start_ns = util::wall_clock_ns();
  const std::size_t min_rounds = args.trace ? 2 : 1;
  while (rounds.size() < min_rounds || seconds_since(start_ns) < args.seconds) {
    const std::uint64_t index = rounds.size();
    log.set_recording(args.trace && index % 2 == 1, index);
    rounds.push_back(workload->run_round(
        index, log, args.wrong_expectation && index == 0));
  }
  const double elapsed_s = seconds_since(start_ns);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setup, ops, traced_run, untraced_run;
  std::vector<double> traced_ops;
  std::map<std::string, std::vector<double>> layer;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed > 0) continue;  // a failed round is not a valid sample
    setup.push_back(r.setup_s);
    (r.traced ? traced_run : untraced_run).push_back(r.run_s);
    if (!r.traced) {
      ops.insert(ops.end(), r.op_ms.begin(), r.op_ms.end());
      continue;
    }
    traced_ops.insert(traced_ops.end(), r.op_ms.begin(), r.op_ms.end());
    for (const auto& [name, value] : r.layer) layer[name].push_back(value);
    for (const auto& [name, value] : log.self_seconds(i)) {
      layer[name + ".self_s"].push_back(value);
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", median(setup), "s"},
               {"run_s", median(untraced_run), "s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"},
               {"campaign_p50_ms", quantile(ops, 0.5), "ms"},
               {"campaign_p90_ms", quantile(ops, 0.9), "ms"}};
  } else {
    std::map<std::string, double> values;
    for (const char* name : kLayerMetrics) values[name] = 0.0;
    for (const auto& [name, samples] : layer) values[name] = median(samples);
    values["obs.trace_overhead"] =
        ratio(median(traced_run), median(untraced_run)) - 1.0;
    for (const auto& [name, value] : values) {
      metrics.push_back({name, value, unit_of(name)});
    }
  }

  const bool correct = failed == 0 && !untraced_run.empty() &&
                       (!args.trace || !traced_run.empty());
  if (args.trace && !args.trace_out.empty() && !log.write_chrome(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }

  const WorkloadInfo info = workload->info();
  std::string manifest = "{\"manifest\":{";
  manifest += "\"workload\":" + quoted(args.workload);
  manifest += ",\"seed\":" + std::to_string(args.seed);
  manifest += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  manifest += ",\"seconds\":" + number(args.seconds);
  manifest += ",\"elapsed_s\":" + number(elapsed_s);
  manifest += ",\"rounds\":" + std::to_string(rounds.size());
  std::string round_s;
  for (const Round& r : rounds) {
    round_s += (round_s.empty() ? "" : ",") + number(r.run_s);
  }
  manifest += ",\"round_run_s\":[" + round_s + "]";
  manifest += ",\"op_samples\":" +
              std::to_string(args.trace ? traced_ops.size() : ops.size());
  manifest += ",\"shards\":" + quoted(info.shards);
  manifest += ",\"ordering\":" + quoted(info.ordering);
  manifest += ",\"size\":" + quoted(info.size);
  manifest += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  manifest += ",\"compiler\":" + quoted(PERFBENCH_COMPILER);
  manifest += ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
  manifest += ",\"rev\":" + quoted(args.rev);
  manifest += "}}";
  std::printf("%s\n", manifest.c_str());

  std::string result = "{\"correct\":" + std::string(correct ? "true" : "false");
  result += ",\"attempted\":" + std::to_string(attempted);
  result += ",\"failed\":" + std::to_string(failed);
  result += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ",";
    result += quoted(metrics[i].name) + ":{\"value\":" +
              number(metrics[i].value) + ",\"unit\":" +
              quoted(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
