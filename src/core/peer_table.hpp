// Struct-of-arrays probe fabric: the per-sweep hot state of one DRS daemon.
//
// One wheel event per (peer, network) probe send plus one timeout event per
// probe would keep 2·(N−1) events pending per daemon, ~130k live events at
// all times in a 256-node cluster, with every queue operation missing cache.
// The sweep keeps exactly one self-rescheduling sweep event per daemon and
// one shared timeout-scan event instead, and parks everything the sweep
// needs — monitored peer ids in probe order, outstanding echo sequence
// numbers, expiry deadlines, usable-verdict bits, link-state generation
// counters — in parallel flat arrays indexed by entry = 2·slot + network.
// Scans over the table (expiry collection, earliest-deadline lookup) are
// branch-light linear walks over contiguous 64-bit lanes.
//
// The table is the *hot* half of the daemon's peer state only: cold repair
// state (relay choices, discovery rounds, warm standbys) stays in the
// daemon's ordered map. Entries are kept sorted by peer id, so each cycle
// probes peers in ascending id order, network A before B.
//
// Churn (add/remove/fail/recover) is supported so cluster membership can
// change between cycles; tests/test_peer_table_property.cpp drives this API
// against a naive map-based reference model, including generation-counter
// wraparound.
#pragma once

#include <cstdint>
#include <vector>

#include "net/addr.hpp"

namespace drs::core {

class PeerTable {
 public:
  static constexpr std::uint16_t kNoSlot = 0xFFFF;
  static constexpr std::int64_t kNoDeadline =
      std::int64_t{0x7FFFFFFFFFFFFFFF};

  /// `node_count` bounds the peer-id space (slots index a dense reverse map).
  explicit PeerTable(std::uint16_t node_count);

  // -- membership churn ------------------------------------------------------

  /// Inserts `peer` into the sweep (sorted by id). Returns false if already
  /// present or out of range. New entries start: no outstanding probe, no
  /// deadline, both networks usable, generation 0.
  bool add_peer(net::NodeId peer);

  /// Removes `peer` and both its entries. Returns false if absent.
  bool remove_peer(net::NodeId peer);

  bool contains(net::NodeId peer) const {
    return peer < slot_of_.size() && slot_of_[peer] != kNoSlot;
  }
  std::uint16_t peer_count() const {
    return static_cast<std::uint16_t>(peer_ids_.size());
  }
  /// Probe entries per cycle: 2 per peer, ordered (peer asc, network 0..1).
  std::size_t entry_count() const { return peer_ids_.size() * 2u; }

  /// Peer id at sweep position `slot` (0-based, ascending ids).
  net::NodeId peer_at(std::uint16_t slot) const { return peer_ids_[slot]; }
  std::uint16_t slot_of(net::NodeId peer) const { return slot_of_[peer]; }

  /// Flat entry index of (peer slot, network).
  static std::uint32_t entry(std::uint16_t slot, net::NetworkId network) {
    return 2u * slot + network;
  }
  net::NodeId entry_peer(std::uint32_t entry) const {
    return peer_ids_[entry >> 1];
  }
  static net::NetworkId entry_network(std::uint32_t entry) {
    return static_cast<net::NetworkId>(entry & 1u);
  }

  // -- probe bookkeeping -----------------------------------------------------

  /// Records an in-flight probe: sequence number + absolute expiry deadline.
  void mark_sent(std::uint32_t entry, std::uint16_t seq,
                 std::int64_t deadline_ns) {
    seq_[entry] = seq;
    deadline_ns_[entry] = deadline_ns;
  }

  /// Clears the in-flight probe (reply arrived, expiry fired, or cancelled).
  void clear_outstanding(std::uint32_t entry) {
    deadline_ns_[entry] = kNoDeadline;
  }

  bool outstanding(std::uint32_t entry) const {
    return deadline_ns_[entry] != kNoDeadline;
  }
  std::uint16_t seq(std::uint32_t entry) const { return seq_[entry]; }
  std::int64_t deadline_ns(std::uint32_t entry) const {
    return deadline_ns_[entry];
  }

  /// Earliest outstanding deadline, kNoDeadline when none: one contiguous
  /// min-reduction over the deadline lane (cleared entries hold the +inf
  /// sentinel, so the loop has no occupancy branch).
  std::int64_t min_deadline_ns() const;

  /// Outstanding entries with deadline <= now, in sweep (= send) order —
  /// the claimed-rank order in which their expiries pop.
  /// Appends entry indices to `due` (not cleared here: expiry runs the same
  /// completion path as a reply, which clears via clear_outstanding).
  void collect_due(std::int64_t now_ns, std::vector<std::uint32_t>& due) const;

  /// Records a successful probe reply instant (diagnostics + staleness
  /// queries); -1 until the first reply on that entry.
  void record_seen(std::uint32_t entry, std::int64_t now_ns) {
    last_seen_ns_[entry] = now_ns;
  }
  std::int64_t last_seen_ns(std::uint32_t entry) const {
    return last_seen_ns_[entry];
  }

  // -- link verdict bits + generations ---------------------------------------

  /// Records the daemon's usable-verdict for an entry; bumps the entry's
  /// generation counter when the verdict flips (fail <-> recover). The
  /// counter is 16-bit and wraps — consumers compare for inequality only.
  void record_state(std::uint32_t entry, bool usable);

  bool usable(std::uint32_t entry) const { return usable_[entry] != 0; }
  std::uint16_t generation(std::uint32_t entry) const { return gen_[entry]; }

  /// Usable entries count — a branch-light popcount-style walk.
  std::size_t usable_count() const;

  /// Pre-sizes every lane for `peers` monitored peers.
  void reserve(std::size_t peers);

 private:
  void resize_lanes(std::size_t peers);

  std::vector<net::NodeId> peer_ids_;       // sorted ascending; sweep order
  std::vector<std::uint16_t> slot_of_;      // peer id -> slot (kNoSlot = absent)
  // Parallel lanes indexed by entry = 2*slot + network.
  std::vector<std::uint16_t> seq_;          // in-flight echo sequence number
  std::vector<std::int64_t> deadline_ns_;   // expiry; kNoDeadline = idle
  std::vector<std::int64_t> last_seen_ns_;  // last reply instant; -1 = never
  std::vector<std::uint8_t> usable_;        // last verdict (1 = usable)
  std::vector<std::uint16_t> gen_;          // bumps per verdict flip; wraps
};

}  // namespace drs::core
