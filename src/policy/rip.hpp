// RIP-lite: the paper's "traditional routing" comparator.
//
// A classic reactive distance-vector daemon (RFC 1058 shaped): each node
// periodically broadcasts its reachable host addresses with metrics; learned
// routes are installed with origin kRip and expire if not refreshed. Failure
// handling is therefore *reactive*: nothing happens until the route times
// out, which with classic parameters (30 s advertisements, 180 s timeout)
// takes minutes — exactly the behaviour the paper contrasts DRS's proactive
// probing against. Both the classic constants and scaled-down variants are
// configurable so the comparison benches can sweep them. RipPolicy is the
// registry's "rip" entry: one daemon and one echo responder per host.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"
#include "policy/policy.hpp"
#include "sim/timer.hpp"

namespace drs::policy {

struct RipConfig {
  util::Duration advertise_interval = util::Duration::seconds(30);
  util::Duration route_timeout = util::Duration::seconds(180);
  /// Send an immediate advertisement when a local metric changes (classic
  /// "triggered updates"). Speeds up propagation, not detection.
  bool triggered_updates = true;
  std::uint8_t infinity_metric = 16;

  /// DrsConfig::validate() shaped: nullopt when consistent, otherwise a
  /// human-readable complaint (the policy registry rejects construction).
  [[nodiscard]] std::optional<std::string> validate() const {
    if (advertise_interval <= util::Duration::zero()) {
      return "rip.advertise_interval must be positive";
    }
    if (route_timeout <= advertise_interval) {
      return "rip.route_timeout must exceed rip.advertise_interval "
             "(routes would expire between refreshes)";
    }
    if (infinity_metric < 2) {
      return "rip.infinity_metric must be at least 2";
    }
    return std::nullopt;
  }
};

struct RipAdvert {
  net::Ipv4Addr destination;
  std::uint8_t metric = 1;
};

struct RipPayload final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kRip;
  RipPayload() : net::Payload(kKind) {}

  net::NodeId advertiser = 0;
  std::vector<RipAdvert> entries;

  /// RIPv1 sizing: 4-byte header + 20 bytes per route entry.
  std::uint32_t wire_size() const override {
    return 4 + 20 * static_cast<std::uint32_t>(entries.size());
  }
  std::string describe() const override;
};

class RipDaemon {
 public:
  RipDaemon(net::Host& host, std::uint16_t node_count, RipConfig config);
  ~RipDaemon();
  RipDaemon(const RipDaemon&) = delete;
  RipDaemon& operator=(const RipDaemon&) = delete;

  void start();
  void stop();

  struct Metrics {
    std::uint64_t advertisements_sent = 0;
    std::uint64_t advertisements_received = 0;
    std::uint64_t routes_learned = 0;
    std::uint64_t routes_expired = 0;
    std::uint64_t triggered_updates = 0;
  };
  const Metrics& metrics() const { return metrics_; }
  std::size_t table_size() const { return learned_.size(); }

 private:
  struct Learned {
    net::NetworkId in_ifindex = 0;
    net::Ipv4Addr next_hop;
    std::uint8_t metric = 1;
    util::SimTime last_heard;
  };

  void advertise();
  void sweep_expired();
  void on_packet(const net::Packet& packet, net::NetworkId in_ifindex);
  void install(net::Ipv4Addr destination, const Learned& learned);

  net::Host& host_;
  std::uint16_t node_count_;
  RipConfig config_;
  std::map<std::uint32_t, Learned> learned_;  // keyed by destination address
  sim::PeriodicTimer advert_timer_;
  sim::PeriodicTimer sweep_timer_;
  Metrics metrics_;
};

/// RIP-lite over a whole cluster; overhead = advertisements sent.
class RipPolicy final : public RoutingPolicy {
 public:
  RipPolicy(net::ClusterNetwork& network, const RipConfig& config);

  const char* name() const override { return "rip"; }
  void start() override;
  void stop() override;
  proto::IcmpService& icmp(net::NodeId node) override {
    return *icmp_.at(node);
  }
  std::uint64_t control_messages() const override;

  RipDaemon& daemon(net::NodeId node) { return *daemons_.at(node); }

 private:
  std::vector<std::unique_ptr<RipDaemon>> daemons_;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
};

}  // namespace drs::policy
