// The fleet: cluster-island partitioning over a ShardedEngine.
//
// The fleet topology (fleet.hpp) is S-shardable almost by construction: the
// k clusters are disjoint L2 islands whose only coupling is the shared relay
// hub. A ShardedFleet assigns each cluster (its networks, its DrsSystem, its
// gateway host) wholly to one shard, so every intra-cluster event is
// shard-local; only relay traffic crosses shards, and the relay backplane's
// propagation delay (5 us by default) is the conservative lookahead. One
// shard runs the whole fleet on one simulator.
//
// The relay hub itself is SHARED state — serialization contention, the
// backlog bound, the loss RNG stream, and failure epochs all couple every
// gateway. Rather than lock it, each shard gets a stub Backplane whose
// boundary hook captures offered frames, and a single relay-hub ORACLE on
// the coordinator replays the hub's transmit math over the globally ordered
// offers at every window barrier. Deliveries come back as cross-shard
// foreign events at the exact (time, key) coordinates one queue holding
// every event would have popped them, so traces (in traced runs) and
// counters are the same at any shard count. tests/golden/fleet_corpus.txt
// pins them over a 22-scenario corpus, frozen from a single-simulator
// implementation of the same topology; docs/SHARDING.md walks through the
// argument.
//
// Contract (both enforced here):
//   - the relay must be a kHub with zero jitter (the delivery stream the
//     oracle replays is the monotone-FIFO path);
//   - failure injections are scheduled up front via
//     schedule_component_failure(), not by external mid-run schedule_at
//     calls (a mid-run push has no rank in the canonical order).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/fleet.hpp"
#include "core/system.hpp"
#include "net/host.hpp"
#include "obs/metrics.hpp"
#include "proto/icmp.hpp"
#include "sim/sharded.hpp"
#include "sim/timer.hpp"

namespace drs::cluster {

/// Contiguous [begin, end) cluster ranges, one per shard, sizes differing by
/// at most one (remainder clusters go to the lowest shards). Contiguity keeps
/// the canonical 27-cluster fleet's shard map human-readable and makes the
/// canonical construction order (cluster-major) trivially reproducible.
std::vector<std::pair<std::uint16_t, std::uint16_t>> partition_clusters(
    std::uint16_t clusters, std::uint32_t shards);

struct ShardedFleetConfig {
  FleetConfig fleet;
  /// Worker threads; clamped to [1, fleet.clusters].
  std::uint32_t shards = 4;
  /// Per-shard tracer ring capacity. 0 runs untraced: no trace, no journal,
  /// no window merge, the same counters. A traced window must fit one ring,
  /// see sim::ShardedEngine::Options::trace_capacity.
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
  /// Property-test hook, see sim::ShardedEngine::Options.
  bool check_windows = false;
  /// Adaptive earliest-output-time windows (sim::ShardedEngine::Options);
  /// the fleet refines the engine bound with the relay oracle's state.
  bool adaptive_windows = true;
  /// Cap on adaptive window length, 0 = unlimited. The gateway probe cadence
  /// (default 100 ms) bounds windows naturally; set this when shrinking
  /// trace_capacity below a cadence's worth of events.
  std::int64_t max_window_ns = 0;
  /// Record per-window occupancy spans (engine().window_spans()) for the
  /// Chrome-trace export.
  bool record_window_spans = false;
};

/// The fleet topology, sharded across worker threads. Traces and (semantic)
/// counters are the same at any shard count; see the file comment.
class ShardedFleet {
 public:
  /// Throws std::invalid_argument when config.fleet.clusters is outside
  /// [1, FleetConfig::kMaxClusters] (see FleetComponents).
  explicit ShardedFleet(ShardedFleetConfig config);
  ~ShardedFleet();
  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  std::uint16_t cluster_count() const { return config_.fleet.clusters; }
  std::uint16_t nodes_per_cluster() const {
    return config_.fleet.nodes_per_cluster;
  }
  const ShardedFleetConfig& config() const { return config_; }

  sim::ShardedEngine& engine() { return engine_; }
  const sim::ShardedEngine& engine() const { return engine_; }
  std::uint32_t shard_of_cluster(net::ClusterId c) const {
    return shard_of_[c];
  }
  net::ClusterNetwork& cluster(net::ClusterId c) { return *clusters_.at(c); }
  core::DrsSystem& system(net::ClusterId c) { return *systems_.at(c); }
  net::Host& gateway(net::ClusterId c) { return *gateways_.at(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) {
    return *gateway_icmp_.at(c);
  }

  /// Starts every cluster's DRS system and the gateway echo mesh (still in
  /// the serialized setup phase).
  void start();

  /// Schedules a component fail/restore at absolute time `at`. Must be called
  /// after start() and before the first run_until() (std::logic_error
  /// otherwise). Each call consumes one setup rank, as pushing the injection
  /// event onto one queue holding every event would, so call order breaks
  /// ties between same-time injections. Throws std::out_of_range for an index
  /// >= component_count().
  void schedule_component_failure(util::SimTime at, net::ComponentIndex index,
                                  bool failed);

  /// Executes every event with time <= deadline (the sharded equivalent of
  /// Simulator::run_until over the whole fleet).
  void run_until(util::SimTime deadline);

  /// Merged global trace, the same at any shard count (modulo
  /// kQueueHighWater, which reports per-queue occupancy).
  const std::vector<obs::TraceEvent>& merged_trace() const {
    return engine_.merged_trace();
  }

  bool all_pristine() const;
  std::uint64_t total_probes_sent() const;

  // -- flat component space (FleetComponents) -------------------------------
  net::ComponentIndex component_count() const;
  /// Throws std::out_of_range for an index >= component_count().
  bool component_failed(net::ComponentIndex index) const;
  const FleetComponents& components() const { return components_; }

  /// Fleet-wide metric snapshot: per-cluster daemon aggregates
  /// ("cluster.<c>.probes_sent", ...), per-gateway echo counters
  /// ("gateway.<c>.*"), relay hub counters ("relay.*"), the summed
  /// "fleet.flight_slots" pool gauge, sim.*/arena.* allocator pressure
  /// aggregated across shards, and shard.<i>.* / engine.* diagnostics
  /// (window_events, barrier_wait_ns, windows_coalesced). The fleet corpus
  /// golden pins everything except the sim./arena./shard./engine. prefixes,
  /// whose values are per-queue or wall-clock implementation detail.
  void collect_metrics(obs::MetricRegistry& registry) const;

 private:
  struct RelayOracle;

  static sim::ShardedEngine::Options engine_options(
      const ShardedFleetConfig& config);

  ShardedFleetConfig config_;
  FleetComponents components_;
  sim::ShardedEngine engine_;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ranges_;
  std::vector<std::uint32_t> shard_of_;  // cluster -> shard
  /// Per-shard relay stubs: attach points for the local gateways' NICs; every
  /// offered frame is diverted to the oracle by the boundary hook.
  std::vector<std::unique_ptr<net::Backplane>> relay_stubs_;
  std::vector<std::unique_ptr<net::ClusterNetwork>> clusters_;
  std::vector<std::unique_ptr<core::DrsSystem>> systems_;
  std::vector<std::unique_ptr<net::Host>> gateways_;
  std::vector<std::unique_ptr<proto::IcmpService>> gateway_icmp_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> gateway_timers_;
  std::unique_ptr<RelayOracle> oracle_;
  bool started_ = false;
  /// Set by the first run_until(); injections are setup-only.
  bool ran_ = false;
};

}  // namespace drs::cluster
