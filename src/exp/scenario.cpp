#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "analytic/enumerate.hpp"
#include "analytic/survivability.hpp"
#include "cluster/fleet.hpp"
#include "cluster/partition.hpp"
#include "core/system.hpp"
#include "cost/cost_model.hpp"
#include "montecarlo/convergence.hpp"
#include "montecarlo/estimator.hpp"
#include "montecarlo/packet_validation.hpp"
#include "net/failure.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "policy/shootout.hpp"

namespace drs::exp {

namespace {

using util::Duration;

cost::CostModel cost_model_for(const ScenarioContext& ctx) {
  cost::CostModel model;
  model.frame.count_preamble_and_ifg = ctx.cell.get_bool("preamble", false);
  if (ctx.cell.get_string("medium", "hub") == "switch") {
    model.medium = net::MediumKind::kSwitch;
  }
  return model;
}

Outputs run_fig1_response_time(const ScenarioContext& ctx) {
  const cost::CostModel model = cost_model_for(ctx);
  const std::int64_t n = ctx.cell.get_int("n", 2);
  const double budget = ctx.cell.get_double("budget", 0.10);
  return {{"seconds", model.response_time_seconds(n, budget)}};
}

Outputs run_fig1_max_nodes(const ScenarioContext& ctx) {
  const cost::CostModel model = cost_model_for(ctx);
  const double deadline = ctx.cell.get_double("deadline", 1.0);
  const double budget = ctx.cell.get_double("budget", 0.10);
  return {{"max_nodes", model.max_nodes(budget, deadline)}};
}

Outputs run_fig1_measured(const ScenarioContext& ctx) {
  const cost::CostModel model = cost_model_for(ctx);
  const std::int64_t n = ctx.cell.get_int("n", 4);
  const Duration interval =
      Duration::millis(ctx.cell.get_int("interval_ms", 100));
  const auto cycles =
      static_cast<std::uint64_t>(ctx.cell.get_int("cycles", 5));
  const cost::MeasuredCycle measured =
      cost::measure_cycle(n, interval, cycles, model);
  return {{"predicted_util", model.utilization(n, interval)},
          {"measured_util_a", measured.utilization_network_a},
          {"measured_util_b", measured.utilization_network_b},
          {"probes_sent", static_cast<std::int64_t>(measured.probes_sent)},
          {"probes_failed", static_cast<std::int64_t>(measured.probes_failed)}};
}

Outputs run_fig2_psuccess(const ScenarioContext& ctx) {
  const std::int64_t n = ctx.cell.get_int("n", 2);
  const std::int64_t f = ctx.cell.get_int("f", 2);
  const bool defined = f <= analytic::component_count(n);
  return {{"defined", defined},
          {"p", defined ? analytic::p_success(n, f) : 0.0}};
}

Outputs run_fig2_crossover(const ScenarioContext& ctx) {
  const std::int64_t f = ctx.cell.get_int("f", 2);
  const double target = ctx.cell.get_double("target", 0.99);
  const std::int64_t n = analytic::threshold_nodes(f, target);
  return {{"n", n},
          {"p_at", analytic::p_success(n, f)},
          {"p_below", analytic::p_success(n - 1, f)}};
}

Outputs run_fig2_unconditional(const ScenarioContext& ctx) {
  const std::int64_t n = ctx.cell.get_int("n", 4);
  const double q = ctx.cell.get_double("q", 0.01);
  return {{"p", analytic::p_success_unconditional(n, q)}};
}

Outputs run_fig2_all_pairs(const ScenarioContext& ctx) {
  const std::int64_t n = ctx.cell.get_int("n", 6);
  const std::int64_t f = ctx.cell.get_int("f", 2);
  return {{"pair", analytic::p_success(n, f)},
          {"all_pairs", analytic::p_all_pairs_success(n, f)}};
}

Outputs run_mc_estimate(const ScenarioContext& ctx) {
  mc::EstimateOptions options;
  options.iterations =
      static_cast<std::uint64_t>(ctx.cell.get_int("iterations", 1000));
  options.seed = ctx.seed;
  options.threads = 1;  // the engine shards across cells, not inside one
  const std::int64_t n = ctx.cell.get_int("n", 8);
  const std::int64_t f = ctx.cell.get_int("f", 3);
  const mc::Estimate estimate = mc::estimate_p_success(n, f, options);
  return {{"p", estimate.p},
          {"successes", static_cast<std::int64_t>(estimate.successes)},
          {"trials", static_cast<std::int64_t>(estimate.trials)},
          {"wilson_lo", estimate.wilson95.lo},
          {"wilson_hi", estimate.wilson95.hi}};
}

Outputs run_fig2_mc_overlay(const ScenarioContext& ctx) {
  mc::EstimateOptions options;
  options.iterations =
      static_cast<std::uint64_t>(ctx.cell.get_int("iterations", 1000));
  options.seed = ctx.seed;
  options.threads = 1;
  const std::int64_t n = ctx.cell.get_int("n", 8);
  const std::int64_t f = ctx.cell.get_int("f", 3);
  const double exact = analytic::p_success(n, f);
  const double simulated = mc::estimate_p_success(n, f, options).p;
  return {{"exact", exact},
          {"simulated", simulated},
          {"abs_diff", std::abs(exact - simulated)}};
}

Outputs run_fig3_convergence(const ScenarioContext& ctx) {
  const mc::ConvergencePoint point = mc::convergence_point(
      ctx.cell.get_int("f", 2),
      static_cast<std::uint64_t>(ctx.cell.get_int("iterations", 1000)),
      ctx.cell.get_int("n_limit", 64), ctx.seed, /*threads=*/1);
  return {{"mad", point.mean_abs_deviation},
          {"max_abs_dev", point.max_abs_deviation}};
}

Outputs run_ablation_relay(const ScenarioContext& ctx) {
  mc::PacketValidationOptions options;
  options.nodes = ctx.cell.get_int("n", 8);
  options.failures = ctx.cell.get_int("f", 3);
  options.samples = static_cast<std::uint64_t>(ctx.cell.get_int("samples", 40));
  // Historical stream layout (bench_ablations): one substream per failure
  // count, offset from the master seed.
  options.seed = ctx.seed + static_cast<std::uint64_t>(options.failures);
  options.drs = ctx.config;
  options.drs.allow_relay = ctx.cell.get_bool("relay", true);
  const auto result = mc::validate_against_packet_level(options);
  return {{"model_p", analytic::p_success(options.nodes, options.failures)},
          {"connected_rate", static_cast<double>(result.packet_connected) /
                                 static_cast<double>(result.samples)},
          {"packet_connected",
           static_cast<std::int64_t>(result.packet_connected)},
          {"samples", static_cast<std::int64_t>(result.samples)}};
}

Outputs run_ablation_packet_agreement(const ScenarioContext& ctx) {
  mc::PacketValidationOptions options;
  options.nodes = ctx.cell.get_int("n", 6);
  options.failures = ctx.cell.get_int("f", 3);
  options.samples = static_cast<std::uint64_t>(ctx.cell.get_int("samples", 20));
  options.seed = ctx.seed;
  options.drs = ctx.config;
  const auto result = mc::validate_against_packet_level(options);
  return {{"samples", static_cast<std::int64_t>(result.samples)},
          {"agreements", static_cast<std::int64_t>(result.agreements)},
          {"disagreements",
           static_cast<std::int64_t>(result.disagreements.size())}};
}

Outputs run_ablation_spread(const ScenarioContext& ctx) {
  const auto n = static_cast<std::uint16_t>(ctx.cell.get_int("n", 24));
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = n, .backplane = {}});
  core::DrsConfig config = ctx.config;
  config.probe_interval =
      Duration::millis(ctx.cell.get_int("interval_ms", 10));
  config.probe_timeout = Duration::millis(ctx.cell.get_int("timeout_ms", 4));
  config.spread_probes = ctx.cell.get_bool("spread", true);
  core::DrsSystem system(network, config);
  system.start();
  const Duration horizon = Duration::millis(ctx.cell.get_int("run_ms", 500));
  sim.run_for(horizon);
  std::int64_t failed = 0;
  for (net::NodeId i = 0; i < n; ++i) {
    failed +=
        static_cast<std::int64_t>(system.daemon(i).metrics().probes_failed);
  }
  const double util_a = network.backplane(net::kNetworkA).busy_seconds() /
                        horizon.to_seconds();
  obs::MetricRegistry metrics;
  core::snapshot_metrics(system, metrics);
  return {{"probes_failed", failed},
          {"util_a", util_a},
          {"metrics", metrics.to_json()}};
}

Outputs run_ablation_warm_standby(const ScenarioContext& ctx) {
  const auto n = static_cast<std::uint16_t>(ctx.cell.get_int("n", 12));
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = n, .backplane = {}});
  core::DrsConfig config = ctx.config;
  config.warm_standby = ctx.cell.get_bool("warm", false);
  core::DrsSystem system(network, config);
  system.start();
  sim.run_for(Duration::seconds(1));
  // Stage the two failures: first one leg, later the other, and measure the
  // application outage of the second transition only.
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(Duration::seconds(2));
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  const util::SimTime injected = sim.now();
  sim.run_for(Duration::seconds(3));
  util::SimTime down_verdict = util::SimTime::max();
  for (const auto& t : system.daemon(0).links().history()) {
    if (t.peer == 1 && t.network == 0 && t.to == core::LinkState::kDown &&
        t.at >= injected) {
      down_verdict = t.at;
    }
  }
  util::SimTime relay_at = util::SimTime::max();
  for (const auto& change : system.daemon(0).metrics().route_changes) {
    if (change.peer == 1 && change.to == core::PeerRouteMode::kRelay) {
      relay_at = std::min(relay_at, change.at);
    }
  }
  const bool reachable = system.test_reachability(0, 1);
  obs::MetricRegistry metrics;
  core::snapshot_metrics(system, metrics);
  return {{"relay_after_down_ns", (relay_at - down_verdict).ns()},
          {"outage_ns", (relay_at - injected).ns()},
          {"reachable", reachable},
          {"metrics", metrics.to_json()}};
}

Outputs run_ablation_detector(const ScenarioContext& ctx) {
  const auto n = static_cast<std::uint16_t>(ctx.cell.get_int("n", 8));
  core::DrsConfig config = ctx.config;
  config.probe_interval =
      Duration::millis(ctx.cell.get_int("interval_ms", 50));
  config.probe_timeout = Duration::millis(ctx.cell.get_int("timeout_ms", 20));
  config.failures_to_down =
      static_cast<std::uint32_t>(ctx.cell.get_int("threshold", 2));

  // Phase 1: noisy but healthy — count spurious DOWN verdicts.
  std::int64_t false_failovers = 0;
  {
    sim::Simulator sim;
    net::Backplane::Config lossy;
    lossy.frame_loss_rate = ctx.cell.get_double("loss", 0.03);
    lossy.seed = static_cast<std::uint64_t>(ctx.cell.get_int("noise_seed", 99));
    net::ClusterNetwork network(sim, {.node_count = n, .backplane = lossy});
    core::DrsSystem system(network, config);
    system.start();
    sim.run_for(Duration::seconds(10));
    for (net::NodeId i = 0; i < n; ++i) {
      false_failovers += static_cast<std::int64_t>(
          system.daemon(i).metrics().links_declared_down);
    }
  }
  // Phase 2: clean medium, one real failure — measure detection latency.
  Duration latency = Duration::zero();
  obs::MetricRegistry metrics;
  {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = n, .backplane = {}});
    core::DrsSystem system(network, config);
    system.start();
    sim.run_for(Duration::seconds(1));
    const util::SimTime injected = sim.now();
    network.set_component_failed(net::ClusterNetwork::nic_component(1, 0),
                                 true);
    sim.run_for(Duration::seconds(2));
    for (const auto& t : system.daemon(0).links().history()) {
      if (t.to == core::LinkState::kDown && t.at >= injected) {
        latency = t.at - injected;
        break;
      }
    }
    core::snapshot_metrics(system, metrics);
  }
  return {{"false_failovers", false_failovers},
          {"detection_ns", latency.ns()},
          {"metrics", metrics.to_json()}};
}

/// The integer axis `field` of `family`, rejected naming the field unless it
/// lies in [lo, hi] (so a narrowing cast downstream can never wrap it).
std::int64_t int_axis_in(const ScenarioContext& ctx, const char* family,
                         const char* field, std::int64_t fallback,
                         std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = ctx.cell.get_int(field, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument(
        std::string(family) + ": `" + field + "` must be in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
        std::to_string(value));
  }
  return value;
}

Outputs run_fleet_smoke(const ScenarioContext& ctx) {
  constexpr std::int64_t kMaxClusters = cluster::FleetConfig::kMaxClusters;
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = static_cast<std::uint16_t>(
      int_axis_in(ctx, "fleet_smoke", "clusters", 27, 1, kMaxClusters));
  config.fleet.nodes_per_cluster = static_cast<std::uint16_t>(
      int_axis_in(ctx, "fleet_smoke", "n", 8, net::ClusterNetwork::kMinNodes,
                  net::ClusterNetwork::kMaxNodes));
  config.fleet.drs = ctx.config;
  // The `shards` axis (also the CLI's --shards default) sets the worker
  // shard count. Shards clamp to the cluster count, so no fleet uses more
  // than kMaxClusters.
  config.shards = static_cast<std::uint32_t>(
      int_axis_in(ctx, "fleet_smoke", "shards", 1, 1, kMaxClusters));
  // The `ordering` axis (also the CLI's --ordering default) picks the
  // determinism lane: "certified" journals and merges for byte-identical
  // traces, "counter-equal" elides both and certifies counts/totals only.
  const std::string ordering = ctx.cell.get_string("ordering", "certified");
  if (ordering != "certified" && ordering != "counter-equal") {
    throw std::invalid_argument("fleet_smoke: unknown ordering `" + ordering +
                                "`");
  }
  config.ordering = ordering == "certified" ? sim::Ordering::kCertified
                                            : sim::Ordering::kCounterEqual;
  // Untraced: the cell reports counters and never reads the merged trace.
  config.trace_capacity = 0;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  fleet.run_until(util::SimTime::zero() +
                  Duration::millis(ctx.cell.get_int("run_ms", 500)));
  std::int64_t gateway_echoes = 0, gateway_timeouts = 0;
  for (net::ClusterId c = 0; c < config.fleet.clusters; ++c) {
    gateway_echoes +=
        static_cast<std::int64_t>(fleet.gateway_icmp(c).probes_sent());
    gateway_timeouts +=
        static_cast<std::int64_t>(fleet.gateway_icmp(c).probes_timed_out());
  }
  // Relay health is the echo mesh's verdict: some gateway echo came back.
  const bool relay_ok =
      config.fleet.clusters < 2 || gateway_echoes > gateway_timeouts;
  obs::MetricRegistry metrics;
  fleet.collect_metrics(metrics);
  return {{"probes_sent", static_cast<std::int64_t>(fleet.total_probes_sent())},
          {"gateway_echoes", gateway_echoes},
          {"gateway_timeouts", gateway_timeouts},
          {"all_pristine", fleet.all_pristine()},
          {"relay_reachable", relay_ok},
          {"metrics", metrics.to_json()}};
}

Outputs run_policy_shootout(const ScenarioContext& ctx) {
  policy::ShootoutConfig config;
  config.node_count = static_cast<std::uint16_t>(ctx.cell.get_int("n", 8));
  config.seed = ctx.seed;
  config.campaigns =
      static_cast<std::uint32_t>(ctx.cell.get_int("campaigns", 5));
  config.events_per_campaign =
      static_cast<std::uint64_t>(ctx.cell.get_int("events", 10));
  config.max_patterns =
      static_cast<std::uint32_t>(ctx.cell.get_int("max_patterns", 12));
  config.warmup = Duration::millis(ctx.cell.get_int("warmup_ms", 2000));
  config.measure = Duration::millis(ctx.cell.get_int("measure_ms", 8000));
  config.params.drs = ctx.config;
  const std::string only = ctx.cell.get_string("policy", "");
  if (!only.empty()) config.policy_filter.push_back(only);
  const policy::ShootoutReport report = policy::run_shootout(config);
  Outputs out;
  out.emplace_back("patterns",
                   static_cast<std::int64_t>(report.corpus.size()));
  out.emplace_back("policies",
                   static_cast<std::int64_t>(report.rows.size()));
  if (!report.rows.empty()) {
    out.emplace_back("winner", report.rows.front().policy);
    out.emplace_back("winner_recovered",
                     static_cast<std::int64_t>(report.rows.front().recovered));
  }
  out.emplace_back("ranking", report.json());
  return out;
}

std::vector<Scenario> build_registry() {
  std::vector<Scenario> all;
  const auto add = [&](Scenario s) { all.push_back(std::move(s)); };

  add({.family = "policy_shootout",
       .version = "v1",
       .help = "Every registered routing policy vs the seeded chaos failure "
               "corpus: recovery rate, detection time, application outage, "
               "detour stretch and control-message overhead, ranked; "
               "optional `policy` axis restricts to one policy",
       .required = {"n"},
       .uses_seed = true,
       .uses_config = true,
       .run = run_policy_shootout});
  add({.family = "fleet_smoke",
       .version = "v2",
       .help = "Multi-cluster fleet smoke: k clusters of n nodes plus the "
               "gateway relay mesh; probe totals, echo counters, pristine "
               "check, and relay health from the echo mesh; the `shards` "
               "axis (1..254, default 1) sets the worker shard count; the "
               "`ordering` axis picks certified (default) or counter-equal",
       .required = {"clusters"},
       .uses_config = true,
       .run = run_fleet_smoke});
  add({.family = "fig1_response_time",
       .version = "v1",
       .help = "Fig. 1 closed form: error-resolution time (s) for cluster "
               "size n at bandwidth budget; optional preamble/medium knobs",
       .required = {"n", "budget"},
       .run = run_fig1_response_time});
  add({.family = "fig1_max_nodes",
       .version = "v1",
       .help = "Fig. 1 inverse: max cluster size meeting a response deadline "
               "(s) at a bandwidth budget",
       .required = {"deadline", "budget"},
       .run = run_fig1_max_nodes});
  add({.family = "fig1_measured",
       .version = "v1",
       .help = "Packet-level cross-check of the Fig. 1 closed form: live "
               "daemons probing for `cycles` cycles at `interval_ms`",
       .required = {"n"},
       .run = run_fig1_measured});
  add({.family = "fig2_psuccess",
       .version = "v1",
       .help = "Equation 1 exactly: P[Success](n, f)",
       .required = {"n", "f"},
       .run = run_fig2_psuccess});
  add({.family = "fig2_crossover",
       .version = "v1",
       .help = "Smallest n with P[Success](n, f) >= target (default 0.99)",
       .required = {"f"},
       .run = run_fig2_crossover});
  add({.family = "fig2_unconditional",
       .version = "v1",
       .help = "Equation 1 mixed over a binomial failure count with "
               "per-component failure probability q",
       .required = {"n", "q"},
       .run = run_fig2_unconditional});
  add({.family = "fig2_all_pairs",
       .version = "v1",
       .help = "Pair vs all-live-pairs success criteria, exact by "
               "enumeration (small n)",
       .required = {"f"},
       .run = run_fig2_all_pairs});
  add({.family = "mc_estimate",
       .version = "v1",
       .help = "Monte-Carlo P[Success](n, f) with Wilson interval",
       .required = {"n", "f"},
       .uses_seed = true,
       .run = run_mc_estimate});
  add({.family = "fig2_mc_overlay",
       .version = "v1",
       .help = "Fig. 2 overlay: Monte-Carlo estimate vs Equation 1 at the "
               "paper's iteration budget",
       .required = {"n", "f"},
       .uses_seed = true,
       .run = run_fig2_mc_overlay});
  add({.family = "fig3_convergence",
       .version = "v1",
       .help = "Fig. 3 cell: mean |simulated - Equation 1| over f < n < "
               "n_limit at an iteration budget",
       .required = {"f", "iterations"},
       .uses_seed = true,
       .run = run_fig3_convergence});
  add({.family = "ablation_relay",
       .version = "v1",
       .help = "Packet-level connectivity rate with relay discovery "
               "on/off (the dual-homing-only ablation)",
       .required = {"f", "relay"},
       .uses_seed = true,
       .uses_config = true,
       .run = run_ablation_relay});
  add({.family = "ablation_packet_agreement",
       .version = "v1",
       .help = "Agreement between the combinatorial model and the live "
               "protocol over sampled failure patterns",
       .required = {"n", "f"},
       .uses_seed = true,
       .uses_config = true,
       .run = run_ablation_packet_agreement});
  add({.family = "ablation_spread",
       .version = "v2",  // v2: obs metrics snapshot in outputs
       .help = "Probe spreading on/off: failed probes and medium "
               "utilization under a deliberately tight interval",
       .required = {"spread"},
       .uses_config = true,
       .run = run_ablation_spread});
  add({.family = "ablation_warm_standby",
       .version = "v2",  // v2: obs metrics snapshot in outputs
       .help = "Warm-standby relays: delay from DOWN verdict to relay mode "
               "on the second cross-split failure",
       .required = {"warm"},
       .uses_config = true,
       .run = run_ablation_warm_standby});
  add({.family = "ablation_detector",
       .version = "v2",  // v2: obs metrics snapshot in outputs
       .help = "failures_to_down tuning: false failovers under frame loss "
               "vs detection latency on a clean medium",
       .required = {"threshold"},
       .uses_config = true,
       .run = run_ablation_detector});

  std::sort(all.begin(), all.end(),
            [](const Scenario& a, const Scenario& b) {
              return a.family < b.family;
            });
  return all;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> registry = build_registry();
  return registry;
}

const Scenario* find_scenario(const std::string& family) {
  for (const Scenario& s : scenarios()) {
    if (s.family == family) return &s;
  }
  return nullptr;
}

}  // namespace drs::exp
