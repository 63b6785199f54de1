// Fleet topology: the paper's deployed system at its real scale.
//
// The MCI deployment ran DRS on ~27 voice-mail clusters of 8–12 servers
// each. A fleet is k independent ClusterNetworks (each with its own pair of
// backplanes and its own DrsSystem) plus an inter-cluster relay segment: a
// shared hub backplane carrying one gateway host per cluster. Gateways
// exchange a periodic echo mesh over the relay subnet (10.200.0.0/24), so
// inter-cluster reachability is continuously measured the same way DRS
// measures intra-cluster links. cluster::ShardedFleet (partition.hpp) builds
// and runs the fleet; this header holds its configuration and its component
// numbering.
//
// Isolation invariant: cluster-local subnets (10.1.0.0/24, 10.2.0.0/24) are
// reused verbatim in every cluster — the clusters are disjoint L2 islands,
// so a fleet member cluster behaves (and traces) byte-identically to a
// standalone cluster of the same size. Cross-cluster traffic travels only
// gateway-to-gateway on relay addresses; cluster addresses never appear on
// the relay segment, so replies cannot be misrouted into the wrong island.
//
// Chaos schedules address a flat component space of k*(2n+2) cluster
// components (cluster-major, each block in ClusterNetwork's canonical
// numbering), then the k gateway NICs, then the relay backplane.
// FleetComponents owns that numbering.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "net/backplane.hpp"
#include "net/network.hpp"
#include "util/time.hpp"

namespace drs::cluster {

struct FleetConfig {
  /// Gateways take host addresses .1 to .254 on the /24 relay subnet.
  static constexpr std::uint16_t kMaxClusters = 254;

  /// The paper's deployment: 27 clusters. Must be in [1, kMaxClusters].
  std::uint16_t clusters = 27;
  std::uint16_t nodes_per_cluster = 8;
  core::DrsConfig drs;
  /// Intra-cluster backplanes (each cluster gets its own pair).
  net::Backplane::Config backplane;
  /// The shared inter-cluster relay hub.
  net::Backplane::Config relay_backplane;
  /// Gateway echo mesh: each gateway pings its successor's relay address
  /// once per interval (ring coverage of the relay segment).
  util::Duration gateway_probe_interval = util::Duration::millis(100);
  util::Duration gateway_probe_timeout = util::Duration::millis(40);
};

/// The fleet's flat component space: k blocks of 2n+2 cluster components,
/// then k gateway NICs, then the relay backplane.
class FleetComponents {
 public:
  enum class Kind : std::uint8_t { kCluster, kGateway, kRelayBackplane };
  struct Decoded {
    Kind kind = Kind::kCluster;
    /// kCluster and kGateway: the owning cluster.
    net::ClusterId cluster = 0;
    /// kCluster: the index in ClusterNetwork's canonical numbering.
    net::ComponentIndex local = 0;
  };

  /// Throws std::invalid_argument unless `clusters` is in
  /// [1, FleetConfig::kMaxClusters]; the fleet builds this first, so it is
  /// its cluster-count check.
  FleetComponents(std::uint16_t clusters, std::uint16_t nodes_per_cluster);

  net::ComponentIndex count() const {
    return clusters_ * stride_ + clusters_ + 1u;
  }
  /// Flat index of cluster `c`'s local component (ClusterNetwork numbering).
  net::ComponentIndex cluster_component(net::ClusterId c,
                                        net::ComponentIndex local) const {
    return c * stride_ + local;
  }
  net::ComponentIndex gateway_component(net::ClusterId c) const {
    return clusters_ * stride_ + c;
  }
  net::ComponentIndex relay_backplane_component() const {
    return clusters_ * stride_ + clusters_;
  }

  /// Which component `index` names. Throws std::out_of_range naming the
  /// index and count() when index >= count().
  Decoded decode(net::ComponentIndex index) const;

 private:
  std::uint32_t clusters_;
  std::uint32_t stride_;
};

}  // namespace drs::cluster
