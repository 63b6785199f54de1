// Pending-event set for the discrete-event engine.
//
// A hierarchical timing wheel (6 levels x 64 buckets, level-0 granule
// 1024 ns) with a small (time, seq) min-heap in front of it and an overflow
// calendar heap behind it:
//
//   push   places the event in the coarsest-fitting wheel bucket — O(1).
//          Events earlier than the already-collected horizon go straight to
//          the ready heap; events beyond the wheel's ~19 h coverage go to the
//          overflow heap and are re-placed as the horizon advances.
//   pop    drains the earliest level-0 bucket into the ready heap (cascading
//          coarser buckets down as their windows arrive) and pops the heap.
//          The heap only ever holds one 1024 ns window plus stragglers, so
//          its depth is tiny compared to a global binary heap.
//   cancel flips a generation bit in the slot table — O(1), no hashing. The
//          physical bucket entry stays behind as a tombstone and is freed
//          when its window is collected.
//
// Ordering is exactly the old binary heap's contract: (time, push sequence),
// so same-timestamp events run FIFO and protocol races (e.g. two ROUTE_OFFERs
// in the same tick) resolve identically on every run; golden traces are
// byte-stable across the queue swap (test_sim_queue_property pins this
// against a reference heap model).
//
// Event state lives in a generation-counted slot table indexed by the low
// half of the EventId; the high half carries the slot's generation, so
// is_pending/cancel are two array reads and stale ids can never alias a
// recycled slot. Callbacks are util::InlineFunction — scheduling an event
// performs no heap allocation (see docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace drs::obs {
class Tracer;
}

namespace drs::sim {

class OrderingJournal;

/// Inline-storage event callback: captures above 48 bytes fail to compile
/// (static_assert in InlineFunction) instead of silently heap-allocating.
/// Pool oversized state and capture an index instead.
using EventCallback = util::InlineFunction<void(), 48>;
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a cancellation id.
  EventId push(util::SimTime t, EventCallback fn);

  /// Consumes and returns the next push-sequence number without scheduling
  /// anything. A claimed rank can later be attached to an event with
  /// push_ranked(), making that event tie-break at equal times exactly as if
  /// it had been pushed when the rank was claimed. This is the primitive
  /// behind the batched probe sweep's byte-identical ordering: one pending
  /// event stands in for many, but each firing must occupy the queue
  /// position of the per-probe event it replaced.
  std::uint64_t claim_rank();

  /// Schedules `fn` at `t` under a rank from claim_rank() instead of a fresh
  /// sequence number. The rank must have been claimed from this queue and be
  /// attached to at most one pending event at a time.
  EventId push_ranked(util::SimTime t, EventCallback fn, std::uint64_t rank);

  /// Cancels a pending event. Returns false if the id is kInvalidEventId,
  /// unknown, already executed, or already cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; SimTime::max() when empty.
  util::SimTime next_time() const;

  struct Popped {
    util::SimTime time;
    EventId id = kInvalidEventId;
    EventCallback fn;
    bool boundary = false;  // pushed under a boundary scope (see below)
  };
  /// Removes and returns the earliest live event. Precondition: !empty().
  Popped pop();

  /// Time and slot index of the earliest live event without removing it
  /// (same tombstone reclamation as next_time). Returns false when empty.
  /// The slot index keys OrderingJournal::meta_for_slot in the sharded
  /// engine's local-vs-foreign head comparison.
  bool peek(std::int64_t& t_ns, std::uint32_t& slot) const;

  std::uint64_t total_scheduled() const { return total_scheduled_; }

  /// True iff the id is scheduled and neither executed nor cancelled.
  /// kInvalidEventId is never pending.
  bool is_pending(EventId id) const;

  /// Pre-sizes the slot table and ready heap for `n` concurrently pending
  /// events so warmup does not regrow them (DrsSystem passes its known
  /// probe-schedule size).
  void reserve(std::size_t n);

  /// Slot-table capacity; stable once the pending-event population peaks
  /// (the zero-allocation instrumented test asserts on this).
  std::size_t slot_count() const { return slots_.size(); }

  /// Observability sink (usually forwarded by Simulator::set_tracer). The
  /// queue emits queue_high_water events when the live-event count first
  /// crosses a power-of-two threshold — O(log n) events per run, so tracing
  /// the queue costs nothing measurable.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Sharded-execution lineage hook (nullptr = off, the default; unsharded
  /// queues pay one predictable branch per push/claim). The
  /// journal observes every push's (slot, rank) pair and every bare rank
  /// claim so the ShardedEngine can reconstruct the global (time, rank)
  /// order across shards — see sim/sharded.hpp. Non-owning.
  void set_journal(OrderingJournal* journal) { journal_ = journal; }

  /// Boundary tagging for the sharded engine's adaptive lookahead. While the
  /// scope flag is set (Simulator raises it during setup segments that build
  /// boundary-reaching machinery, while executing a boundary-tagged event,
  /// and while executing a foreign delivery), every push is tagged and
  /// entered into a side min-heap, so next_boundary_ns() can answer "when is
  /// the earliest event that could emit cross-shard traffic?" without
  /// scanning the wheel. Tags propagate transitively: a tagged parent's
  /// children are tagged. Unsharded runs never raise the scope and pay one
  /// predictable branch per push.
  void set_boundary_scope(bool on) { boundary_scope_ = on; }
  bool boundary_scope() const { return boundary_scope_; }

  /// Earliest live boundary-tagged event's time, or INT64_MAX when none.
  /// Lazily drops stale heap entries (executed/cancelled/recycled slots),
  /// same const contract as next_time().
  std::int64_t next_boundary_ns() const;

 private:
  static constexpr int kLevels = 6;
  static constexpr int kBucketBits = 6;  // 64 buckets per level
  static constexpr int kBuckets = 1 << kBucketBits;
  static constexpr int kGranuleShift = 10;  // level-0 bucket spans 1024 ns
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  static constexpr int shift_for(int level) {
    return kGranuleShift + kBucketBits * level;
  }

  struct Slot {
    std::int64_t time_ns = 0;
    std::uint64_t seq = 0;       // push order; breaks same-time ties FIFO
    std::uint32_t gen = 0;       // odd = live, even = dead; bumps on each flip
    std::uint32_t next_free = kNoSlot;
    bool boundary = false;       // pushed under the boundary scope
    EventCallback fn;
  };

  /// Ordering key + slot index, copied flat so heap sifts touch no slots.
  struct Ready {
    std::int64_t time_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void place(std::uint32_t slot, std::int64_t t, std::uint64_t seq);
  void collect();
  void drain_overflow();
  void heap_push(std::vector<Ready>& heap, Ready entry);
  Ready heap_pop(std::vector<Ready>& heap);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  std::vector<Ready> ready_;       // min-heap over (time, seq); all < horizon_
  std::vector<Ready> overflow_;    // min-heap; beyond the wheel's coverage
  std::vector<Ready> boundary_;    // min-heap over live boundary-tagged events
  std::vector<std::uint32_t> buckets_[kLevels][kBuckets];
  std::uint64_t occupied_[kLevels] = {};  // bit b set iff buckets_[l][b] nonempty
  std::int64_t horizon_ = 0;  // wheel/overflow entries are all >= horizon_
  std::size_t wheel_count_ = 0;  // physical entries in buckets (incl. tombstones)

  std::size_t live_ = 0;
  std::uint64_t total_scheduled_ = 0;
  bool boundary_scope_ = false;
  obs::Tracer* tracer_ = nullptr;
  OrderingJournal* journal_ = nullptr;
  std::size_t high_water_next_ = 16;  // next power-of-two threshold to report
};

}  // namespace drs::sim
