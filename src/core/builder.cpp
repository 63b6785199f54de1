#include "core/builder.hpp"

#include <stdexcept>

#include "policy/drs.hpp"
#include "proto/icmp.hpp"

namespace drs::core {

DrsDeployment::DrsDeployment(std::unique_ptr<sim::Simulator> simulator,
                             std::unique_ptr<net::ClusterNetwork> network,
                             std::unique_ptr<policy::RoutingPolicy> routing_policy)
    : simulator_(std::move(simulator)),
      network_(std::move(network)),
      policy_(std::move(routing_policy)) {
  if (auto* drs = dynamic_cast<policy::DrsPolicy*>(policy_.get())) {
    system_view_ = &drs->system();
  }
}

DrsSystem& DrsDeployment::system() {
  if (system_view_ == nullptr) {
    throw std::logic_error("DrsDeployment::system(): deployment runs policy '" +
                           std::string(policy_->name()) +
                           "' with no DrsSystem — use policy() instead");
  }
  return *system_view_;
}

const DrsSystem& DrsDeployment::system() const {
  return const_cast<DrsDeployment*>(this)->system();
}

void DrsDeployment::settle(util::Duration warmup) {
  if (system_view_ != nullptr) {
    system_view_->settle(warmup);
    return;
  }
  simulator_->run_for(warmup);
}

bool DrsDeployment::test_reachability(net::NodeId a, net::NodeId b) {
  if (system_view_ != nullptr) return system_view_->test_reachability(a, b);
  // Generic data-plane check: one echo through the policy's ICMP service,
  // mirroring DrsSystem::test_reachability's 250 ms budget.
  bool reachable = false;
  proto::PingOptions options;
  options.timeout = util::Duration::millis(250);
  policy_->icmp(a).ping(net::cluster_ip(net::kNetworkA, b), options,
                        [&reachable](const proto::PingResult& r) {
                          reachable = r.success;
                        });
  simulator_->run_for(options.timeout + util::Duration::millis(1));
  return reachable;
}

DrsSystemBuilder& DrsSystemBuilder::node_count(std::uint16_t n) {
  node_count_ = n;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::config(DrsConfig c) {
  params_.drs = std::move(c);
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::probe_interval(util::Duration d) {
  params_.drs.probe_interval = d;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::probe_timeout(util::Duration d) {
  params_.drs.probe_timeout = d;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::failures_to_down(std::uint32_t n) {
  params_.drs.failures_to_down = n;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::allow_relay(bool on) {
  params_.drs.allow_relay = on;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::warm_standby(bool on) {
  params_.drs.warm_standby = on;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::adaptive_timeout(bool on) {
  params_.drs.adaptive_timeout = on;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::with_policy(std::string name,
                                                policy::PolicyParams params) {
  policy_name_ = std::move(name);
  params_ = std::move(params);
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::backplane(net::Backplane::Config c) {
  backplane_ = c;
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::fail_component(net::ComponentIndex component) {
  pre_failed_.push_back(component);
  return *this;
}

DrsSystemBuilder& DrsSystemBuilder::auto_start(bool on) {
  auto_start_ = on;
  return *this;
}

DrsDeployment DrsSystemBuilder::build() const {
  auto simulator = std::make_unique<sim::Simulator>();
  auto network = std::make_unique<net::ClusterNetwork>(
      *simulator,
      net::ClusterNetwork::Config{.node_count = node_count_,
                                  .backplane = backplane_});
  // Pre-seeded failures land after construction but before start(), so the
  // policy's first cycle sees the degraded hardware.
  std::unique_ptr<policy::RoutingPolicy> routing_policy =
      policy::make_policy(policy_name_, *network, params_);
  for (const net::ComponentIndex component : pre_failed_) {
    network->set_component_failed(component, true);
  }
  if (auto_start_) routing_policy->start();
  return DrsDeployment(std::move(simulator), std::move(network),
                       std::move(routing_policy));
}

}  // namespace drs::core
