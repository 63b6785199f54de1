// The DRS daemons as a RoutingPolicy.
//
// DrsSystem lives in `core`, below this layer, so the policy face of DRS is
// this thin wrapper; RIP-lite and OSPF-lite (policy/rip.hpp, policy/ospf.hpp)
// implement RoutingPolicy themselves.
#pragma once

#include "core/system.hpp"
#include "policy/policy.hpp"

namespace drs::policy {

/// The DRS daemons themselves; overhead = probes + control messages.
class DrsPolicy final : public RoutingPolicy {
 public:
  DrsPolicy(net::ClusterNetwork& network, const core::DrsConfig& config)
      : system_(network, config) {}

  const char* name() const override { return "drs"; }
  void start() override { system_.start(); }
  void stop() override { system_.stop(); }
  proto::IcmpService& icmp(net::NodeId node) override {
    return system_.icmp(node);
  }
  std::uint64_t control_messages() const override {
    return system_.total_probes_sent() + system_.total_control_messages();
  }

  core::DrsSystem& system() { return system_; }

 private:
  core::DrsSystem system_;
};

}  // namespace drs::policy
