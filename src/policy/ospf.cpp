#include "policy/ospf.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/log.hpp"

namespace drs::policy {

std::string OspfHello::describe() const {
  std::ostringstream out;
  out << "ospf-hello from " << advertiser;
  return out.str();
}

std::string OspfLsa::describe() const {
  std::ostringstream out;
  out << "ospf-lsa origin=" << origin << " seq=" << sequence;
  return out.str();
}

OspfDaemon::OspfDaemon(net::Host& host, std::uint16_t node_count, OspfConfig config)
    : host_(host),
      node_count_(node_count),
      config_(config),
      last_heard_(static_cast<std::size_t>(node_count) * net::kNetworksPerHost),
      hello_timer_(host.simulator(), config.hello_interval,
                   [this] {
                     send_hello();
                     sweep_neighbors();
                   }),
      refresh_timer_(host.simulator(), config.lsa_refresh,
                     [this] { originate_lsa(); }) {
  if (node_count > kOspfMaxNodes) {
    throw std::invalid_argument(
        "ospf: OSPF-lite supports at most " + std::to_string(kOspfMaxNodes) +
        " nodes (adjacencies are 64-bit masks), got " +
        std::to_string(node_count));
  }
  host_.register_handler(net::Protocol::kOspf,
                         [this](const net::Packet& p, net::NetworkId in_if) {
                           on_packet(p, in_if);
                         });
}

OspfDaemon::~OspfDaemon() { stop(); }

void OspfDaemon::start() {
  if (hello_timer_.running()) return;
  hello_timer_.start();
  refresh_timer_.start(config_.lsa_refresh / 2);
}

void OspfDaemon::stop() {
  hello_timer_.stop();
  refresh_timer_.stop();
}

bool OspfDaemon::adjacent(net::NodeId peer, net::NetworkId network) const {
  return (my_neighbors_[network] >> peer) & 1u;
}

void OspfDaemon::send_hello() {
  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    auto hello = std::make_shared<OspfHello>();
    hello->advertiser = host_.id();
    net::Packet packet;
    packet.dst = net::Ipv4Addr(net::cluster_subnet(k).value() | 0xFFu);
    packet.protocol = net::Protocol::kOspf;
    packet.payload = std::move(hello);
    ++metrics_.hellos_sent;
    host_.broadcast_on(k, std::move(packet));
  }
}

void OspfDaemon::sweep_neighbors() {
  const util::SimTime now = host_.simulator().now();
  bool changed = false;
  for (net::NodeId peer = 0; peer < node_count_; ++peer) {
    for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
      if (!adjacent(peer, k)) continue;
      const util::SimTime heard =
          last_heard_[static_cast<std::size_t>(peer) * net::kNetworksPerHost + k];
      if (now - heard > config_.dead_interval) {
        my_neighbors_[k] &= ~(std::uint64_t{1} << peer);
        ++metrics_.neighbors_lost;
        changed = true;
        DRS_INFO("ospf", "node %u: neighbor %u on net %u dead", host_.id(),
                 peer, k);
      }
    }
  }
  if (changed) {
    originate_lsa();
    recompute_routes();
  }
}

void OspfDaemon::originate_lsa() {
  auto lsa = std::make_shared<OspfLsa>();
  lsa->origin = host_.id();
  lsa->sequence = ++my_sequence_;
  lsa->neighbors = my_neighbors_;
  ++metrics_.lsas_originated;

  // Keep our own LSDB entry current so route computation sees ourselves.
  lsdb_[host_.id()] =
      LsdbEntry{my_sequence_, my_neighbors_, host_.simulator().now()};

  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    net::Packet packet;
    packet.dst = net::Ipv4Addr(net::cluster_subnet(k).value() | 0xFFu);
    packet.protocol = net::Protocol::kOspf;
    packet.payload = lsa;
    host_.broadcast_on(k, packet);
  }
}

void OspfDaemon::on_packet(const net::Packet& packet, net::NetworkId in_ifindex) {
  if (const OspfHello* hello = net::payload_cast<OspfHello>(packet.payload)) {
    if (hello->advertiser == host_.id() || hello->advertiser >= node_count_) return;
    ++metrics_.hellos_received;
    last_heard_[static_cast<std::size_t>(hello->advertiser) *
                    net::kNetworksPerHost +
                in_ifindex] = host_.simulator().now();
    const std::uint64_t bit = std::uint64_t{1} << hello->advertiser;
    if ((my_neighbors_[in_ifindex] & bit) == 0) {
      my_neighbors_[in_ifindex] |= bit;
      originate_lsa();
      recompute_routes();
    }
    return;
  }

  if (const OspfLsa* lsa = net::payload_cast<OspfLsa>(packet.payload)) {
    if (lsa->origin == host_.id() || lsa->origin >= node_count_) return;
    auto it = lsdb_.find(lsa->origin);
    if (it != lsdb_.end() && lsa->sequence <= it->second.sequence) {
      return;  // stale or duplicate: do not re-flood (loop guard)
    }
    lsdb_[lsa->origin] =
        LsdbEntry{lsa->sequence, lsa->neighbors, host_.simulator().now()};
    // Flood onward on both interfaces (the origin's copy already covered the
    // network it arrived on, but dual-homed flooding bridges partitions).
    ++metrics_.lsas_flooded;
    for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
      net::Packet copy;
      copy.dst = net::Ipv4Addr(net::cluster_subnet(k).value() | 0xFFu);
      copy.protocol = net::Protocol::kOspf;
      copy.payload = packet.payload;
      host_.broadcast_on(k, std::move(copy));
    }
    recompute_routes();
  }
}

bool OspfDaemon::edge(net::NodeId u, net::NodeId v, net::NetworkId network) const {
  // Bidirectionality: both endpoints must claim the adjacency. Our own view
  // is authoritative for edges incident to us.
  auto claims = [&](net::NodeId from, net::NodeId to) {
    if (from == host_.id()) return adjacent(to, network);
    auto it = lsdb_.find(from);
    return it != lsdb_.end() &&
           ((it->second.neighbors[network] >> to) & 1u) != 0;
  };
  return claims(u, v) && claims(v, u);
}

void OspfDaemon::recompute_routes() {
  ++metrics_.spf_runs;
  std::map<std::uint32_t, net::Route> desired;

  for (net::NodeId peer = 0; peer < node_count_; ++peer) {
    if (peer == host_.id()) continue;
    for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
      const net::NetworkId other = static_cast<net::NetworkId>(1 - k);
      if (edge(host_.id(), peer, k)) continue;  // subnet route suffices
      const net::Ipv4Addr dst = net::cluster_ip(k, peer);
      if (edge(host_.id(), peer, other)) {
        desired[dst.value()] = net::Route{dst, 32, other,
                                          net::cluster_ip(other, peer), 2,
                                          net::RouteOrigin::kOspf};
        continue;
      }
      // One-hop relay: lowest (relay, network-to-relay) with a verified
      // relay-to-peer edge on either network.
      for (net::NodeId relay = 0; relay < node_count_; ++relay) {
        if (relay == peer || relay == host_.id()) continue;
        bool installed = false;
        for (net::NetworkId a = 0; a < net::kNetworksPerHost; ++a) {
          if (!edge(host_.id(), relay, a)) continue;
          if (edge(relay, peer, 0) || edge(relay, peer, 1)) {
            desired[dst.value()] = net::Route{dst, 32, a,
                                              net::cluster_ip(a, relay), 3,
                                              net::RouteOrigin::kOspf};
            installed = true;
            break;
          }
        }
        if (installed) break;
      }
      // No path: leave no route (the subnet route will blackhole, which is
      // the honest outcome).
    }
  }

  net::RoutingTable& table = host_.routing_table();
  std::vector<net::Ipv4Addr> stale;
  for (const auto& route : table.routes()) {
    if (route.origin != net::RouteOrigin::kOspf) continue;
    auto want = desired.find(route.prefix.value());
    if (want == desired.end()) {
      stale.push_back(route.prefix);
    } else if (want->second.out_ifindex == route.out_ifindex &&
               want->second.next_hop == route.next_hop) {
      desired.erase(want);
    }
  }
  for (net::Ipv4Addr prefix : stale) {
    table.remove(prefix, 32, net::RouteOrigin::kOspf);
  }
  for (const auto& [value, route] : desired) table.install(route);
}

OspfPolicy::OspfPolicy(net::ClusterNetwork& network, const OspfConfig& config) {
  for (net::NodeId i = 0; i < network.node_count(); ++i) {
    daemons_.push_back(std::make_unique<OspfDaemon>(network.host(i),
                                                    network.node_count(), config));
    icmp_.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
  }
}

void OspfPolicy::start() {
  for (auto& daemon : daemons_) daemon->start();
}

void OspfPolicy::stop() {
  for (auto& daemon : daemons_) daemon->stop();
}

std::uint64_t OspfPolicy::control_messages() const {
  std::uint64_t total = 0;
  for (const auto& daemon : daemons_) {
    const auto& m = daemon->metrics();
    total += m.hellos_sent + m.lsas_originated + m.lsas_flooded;
  }
  return total;
}

}  // namespace drs::policy
