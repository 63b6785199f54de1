#include "policy/registry.hpp"

#include <stdexcept>

#include "policy/drs.hpp"

namespace drs::policy {

namespace {

/// The do-nothing boot-routes baseline: echo responders and nothing else. Its
/// overhead really is zero, reported through the same control_messages()
/// hook as everyone else (no harness special case).
class StaticPolicy final : public RoutingPolicy {
 public:
  explicit StaticPolicy(net::ClusterNetwork& network) {
    for (net::NodeId i = 0; i < network.node_count(); ++i) {
      icmp_.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
    }
  }

  const char* name() const override { return "static"; }
  void start() override {}
  void stop() override {}
  proto::IcmpService& icmp(net::NodeId node) override {
    return *icmp_.at(node);
  }
  std::uint64_t control_messages() const override { return 0; }

 private:
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
};

std::optional<std::string> validate_none(const PolicyParams&) {
  return std::nullopt;
}

const std::vector<PolicyFactory>& registry() {
  // Sorted by name; find_policy and policy_names rely on the order.
  static const std::vector<PolicyFactory> kPolicies = {
      {"alternate_path",
       "precomputed alternate paths swapped in on (delayed) failure "
       "notification; overhead = notification fan-out",
       [](const PolicyParams& p) { return p.alternate_path.validate(); },
       [](net::ClusterNetwork& network, const PolicyParams& p)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<AlternatePathPolicy>(network,
                                                      p.alternate_path);
       }},
      {"drs",
       "the paper's proactive probing daemons (detour repertoire, relays)",
       [](const PolicyParams& p) { return p.drs.validate(); },
       [](net::ClusterNetwork& network, const PolicyParams& p)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<DrsPolicy>(network, p.drs);
       }},
      {"ospf",
       "OSPF-lite link-state baseline (hello dead-interval detection)",
       [](const PolicyParams& p) { return p.ospf.validate(); },
       [](net::ClusterNetwork& network, const PolicyParams& p)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<OspfPolicy>(network, p.ospf);
       }},
      {"rip",
       "RIP-lite distance-vector baseline (route-timeout detection)",
       [](const PolicyParams& p) { return p.rip.validate(); },
       [](net::ClusterNetwork& network, const PolicyParams& p)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<RipPolicy>(network, p.rip);
       }},
      {"static",
       "boot-time subnet routes only; never reacts (the no-protocol floor)",
       validate_none,
       [](net::ClusterNetwork& network, const PolicyParams&)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<StaticPolicy>(network);
       }},
      {"static_resilient",
       "precomputed circular backup sequences, local visibility only, zero "
       "control messages",
       [](const PolicyParams& p) { return p.static_resilient.validate(); },
       [](net::ClusterNetwork& network, const PolicyParams& p)
           -> std::unique_ptr<RoutingPolicy> {
         return std::make_unique<StaticResilientPolicy>(network,
                                                        p.static_resilient);
       }},
  };
  return kPolicies;
}

std::string known_names() {
  std::string names;
  for (const PolicyFactory& factory : registry()) {
    if (!names.empty()) names += ", ";
    names += factory.name;
  }
  return names;
}

}  // namespace

const std::vector<PolicyFactory>& policies() { return registry(); }

const PolicyFactory* find_policy(std::string_view name) {
  for (const PolicyFactory& factory : registry()) {
    if (name == factory.name) return &factory;
  }
  return nullptr;
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const PolicyFactory& factory : registry()) {
    names.emplace_back(factory.name);
  }
  return names;
}

std::optional<std::string> validate_policy(std::string_view name,
                                           const PolicyParams& params) {
  const PolicyFactory* factory = find_policy(name);
  if (factory == nullptr) {
    return "unknown policy '" + std::string(name) +
           "' (registered: " + known_names() + ")";
  }
  if (auto error = factory->validate(params)) {
    return "policy '" + std::string(name) + "': " + *error;
  }
  return std::nullopt;
}

std::unique_ptr<RoutingPolicy> make_policy(std::string_view name,
                                           net::ClusterNetwork& network,
                                           const PolicyParams& params) {
  if (auto error = validate_policy(name, params)) {
    throw std::invalid_argument(*error);
  }
  return find_policy(name)->create(network, params);
}

}  // namespace drs::policy
