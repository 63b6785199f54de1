#include "cluster/fleet.hpp"

#include <stdexcept>
#include <string>

namespace drs::cluster {

FleetComponents::FleetComponents(std::uint16_t clusters,
                                 std::uint16_t nodes_per_cluster)
    : clusters_(clusters), stride_(2u * nodes_per_cluster + 2u) {
  if (clusters < 1 || clusters > FleetConfig::kMaxClusters) {
    throw std::invalid_argument(
        "fleet: clusters must be in [1, " +
        std::to_string(FleetConfig::kMaxClusters) + "], got " +
        std::to_string(clusters));
  }
}

FleetComponents::Decoded FleetComponents::decode(
    net::ComponentIndex index) const {
  if (index >= count()) {
    throw std::out_of_range("fleet component index " + std::to_string(index) +
                            " out of range (component_count " +
                            std::to_string(count()) + ")");
  }
  const net::ComponentIndex cluster_span = clusters_ * stride_;
  if (index < cluster_span) {
    return {Kind::kCluster, static_cast<net::ClusterId>(index / stride_),
            index % stride_};
  }
  if (index < cluster_span + clusters_) {
    return {Kind::kGateway, static_cast<net::ClusterId>(index - cluster_span),
            0};
  }
  return {Kind::kRelayBackplane, 0, 0};
}

}  // namespace drs::cluster
