// Fluent construction of a complete DRS deployment — or, via with_policy(),
// a deployment running any other registered routing policy.
//
// DrsSystem deliberately takes an externally-owned ClusterNetwork, which is
// the right shape for the simulator-driving tests but makes the common case
// — "give me an N-node cluster with these knobs, some components already
// dead, daemons running" — a four-object dance. DrsSystemBuilder assembles
// the whole stack in one fluent expression and returns a DrsDeployment that
// owns every piece, in construction order, so teardown is automatic.
//
//   auto cluster = core::DrsSystemBuilder()
//                      .node_count(8)
//                      .probe_interval(50_ms)
//                      .probe_timeout(20_ms)
//                      .fail_component(net::ClusterNetwork::nic_component(1, 0))
//                      .build();
//   cluster.settle(1_s);
//
//   auto alt = core::DrsSystemBuilder()
//                  .node_count(8)
//                  .with_policy("alternate_path")
//                  .build();
//   alt.policy().control_messages();
//
// build() constructs every policy, DRS included, through policy::make_policy,
// which validates the selected policy's parameter struct and throws
// std::invalid_argument with a descriptive message on inconsistent knobs —
// unknown policy names list the registered names.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "net/network.hpp"
#include "policy/registry.hpp"

namespace drs::core {

/// Owns an entire simulated cluster: simulator, network, and the one
/// RoutingPolicy running on it (DRS unless with_policy() chose another).
/// Move-only; destroying it tears the stack down in reverse order.
class DrsDeployment {
 public:
  DrsDeployment(std::unique_ptr<sim::Simulator> simulator,
                std::unique_ptr<net::ClusterNetwork> network,
                std::unique_ptr<policy::RoutingPolicy> routing_policy);

  sim::Simulator& simulator() { return *simulator_; }
  net::ClusterNetwork& network() { return *network_; }

  /// The DRS daemons. Throws std::logic_error for a deployment built with a
  /// non-DRS policy (use policy() there); has_system() discriminates.
  DrsSystem& system();
  const DrsSystem& system() const;
  bool has_system() const { return system_view_ != nullptr; }

  policy::RoutingPolicy& policy() { return *policy_; }

  /// Pass-throughs for the calls every example makes; both work for any
  /// policy (DRS delegates to DrsSystem, others run the generic probe).
  void settle(util::Duration warmup);
  bool test_reachability(net::NodeId a, net::NodeId b);

 private:
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::ClusterNetwork> network_;
  std::unique_ptr<policy::RoutingPolicy> policy_;
  DrsSystem* system_view_ = nullptr;  // non-null when the policy is DRS
};

class DrsSystemBuilder {
 public:
  /// Cluster size (default 8, the paper's smallest deployed cluster).
  DrsSystemBuilder& node_count(std::uint16_t n);

  /// Replaces the whole configuration at once; later fluent knob calls
  /// override individual fields on top of it.
  DrsSystemBuilder& config(DrsConfig c);

  // Individual knob overrides for the commonly-swept fields.
  DrsSystemBuilder& probe_interval(util::Duration d);
  DrsSystemBuilder& probe_timeout(util::Duration d);
  DrsSystemBuilder& failures_to_down(std::uint32_t n);
  DrsSystemBuilder& allow_relay(bool on);
  DrsSystemBuilder& warm_standby(bool on);
  DrsSystemBuilder& adaptive_timeout(bool on);

  /// Selects a registered routing policy by name ("drs", the default,
  /// "rip", "ospf", "static", "static_resilient", "alternate_path", ...).
  /// Replaces the whole parameter set (like config()), so call it before
  /// individual knob overrides — the DRS knob setters above keep working by
  /// editing params.drs.
  DrsSystemBuilder& with_policy(std::string name,
                                policy::PolicyParams params = {});

  /// Backplane medium characteristics (loss, rate, switch vs hub).
  DrsSystemBuilder& backplane(net::Backplane::Config c);

  /// Marks a component failed before the daemons start — the "cluster came
  /// up already degraded" scenario every survivability sweep needs.
  DrsSystemBuilder& fail_component(net::ComponentIndex component);

  /// Whether build() also starts the daemons (default true).
  DrsSystemBuilder& auto_start(bool on);

  /// Assembles the deployment through policy::make_policy. Throws
  /// std::invalid_argument when the configuration fails validation (the
  /// selected policy's parameter validate, or an unknown policy name).
  [[nodiscard]] DrsDeployment build() const;

 private:
  std::uint16_t node_count_ = 8;
  std::string policy_name_ = "drs";
  policy::PolicyParams params_;
  net::Backplane::Config backplane_;
  std::vector<net::ComponentIndex> pre_failed_;
  bool auto_start_ = true;
};

}  // namespace drs::core
