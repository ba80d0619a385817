#include "sim/simulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <queue>
#include <vector>

#include "common/arena.h"
#include "common/logging.h"

namespace cackle {
namespace {

constexpr SimTimeMs kMaxSimTime = std::numeric_limits<SimTimeMs>::max();

}  // namespace

/// Scheduler backend interface. The two implementations must agree on
/// observable behavior exactly: events pop in (when, seq) order, Cancel
/// returns true iff the event was still pending, and a cancelled event
/// never pops. Memory layout and handle encoding may differ.
class Simulation::QueueImpl {
 public:
  explicit QueueImpl(Stats* stats, const SimOptions& options)
      : stats_(stats), options_(options) {}
  virtual ~QueueImpl() = default;

  /// Enqueues an event; returns its cancellation handle.
  virtual uint64_t Schedule(SimTimeMs when, uint64_t seq, Callback cb) = 0;
  /// Cancels a pending event (true iff it was live). The callback is
  /// destroyed immediately; a stale handle (already fired, already
  /// cancelled, or recycled storage) safely returns false.
  virtual bool Cancel(uint64_t id) = 0;
  /// Pops the earliest live event if its time is <= `limit`, moving its
  /// callback into `*cb`. Returns false when no live event qualifies.
  virtual bool PopNext(SimTimeMs limit, SimTimeMs* when, Callback* cb) = 0;
  /// Resident entries, including cancelled tombstones.
  virtual int64_t entries() const = 0;

 protected:
  Stats* stats_;
  const SimOptions options_;
};

// ---------------------------------------------------------------------------
// Binary-heap reference scheduler: the original kernel — one heap-allocated
// event per schedule, a std::priority_queue of pointers, and a flat seq-
// indexed registry for cancellation. Kept verbatim (plus tombstone
// compaction) as the differential-testing reference and perf baseline.
// ---------------------------------------------------------------------------

class Simulation::BinaryHeapQueue : public Simulation::QueueImpl {
 public:
  using QueueImpl::QueueImpl;

  ~BinaryHeapQueue() override {
    while (!queue_.empty()) {
      delete queue_.top();
      queue_.pop();
    }
  }

  uint64_t Schedule(SimTimeMs when, uint64_t seq, Callback cb) override {
    Event* ev = new Event{when, seq, std::move(cb), false};
    queue_.push(ev);
    pending_.push_back(ev);
    return seq;
  }

  bool Cancel(uint64_t id) override {
    Event* ev = FindPending(id);
    if (ev == nullptr || ev->cancelled) return false;
    ev->cancelled = true;
    ev->cb.reset();
    ++tombstones_;
    MaybeCompact();
    return true;
  }

  bool PopNext(SimTimeMs limit, SimTimeMs* when, Callback* cb) override {
    while (!queue_.empty()) {
      Event* ev = queue_.top();
      if (!ev->cancelled && ev->when > limit) return false;
      queue_.pop();
      ClearRegistrySlot(ev->seq);
      if (ev->cancelled) {
        --tombstones_;
        delete ev;
        continue;
      }
      *when = ev->when;
      *cb = std::move(ev->cb);
      delete ev;
      if ((++pops_ & 0xFFF) == 0) CompactRegistry();
      return true;
    }
    CompactRegistry();
    return false;
  }

  int64_t entries() const override {
    return static_cast<int64_t>(queue_.size());
  }

 private:
  struct Event {
    SimTimeMs when;
    uint64_t seq;
    Callback cb;
    bool cancelled = false;
  };
  struct EventOrder {
    bool operator()(const Event* a, const Event* b) const {
      if (a->when != b->when) return a->when > b->when;
      return a->seq > b->seq;
    }
  };

  Event* FindPending(uint64_t seq) {
    if (seq < base_seq_) return nullptr;
    const uint64_t slot = seq - base_seq_;
    if (slot >= pending_.size()) return nullptr;
    return pending_[slot];
  }

  void ClearRegistrySlot(uint64_t seq) {
    const uint64_t slot = seq - base_seq_;
    CACKLE_CHECK_LT(slot, pending_.size());
    pending_[slot] = nullptr;
  }

  void CompactRegistry() {
    // Drop leading registry slots whose events already executed (marked
    // nullptr) to keep memory bounded on long simulations.
    size_t drop = 0;
    while (drop < pending_.size() && pending_[drop] == nullptr) ++drop;
    if (drop > 0) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<ptrdiff_t>(drop));
      base_seq_ += drop;
    }
  }

  void MaybeCompact() {
    const int64_t live = entries() - tombstones_;
    if (tombstones_ <= options_.min_compaction_tombstones ||
        tombstones_ <= 2 * live) {
      return;
    }
    std::vector<Event*> keep;
    keep.reserve(static_cast<size_t>(live));
    while (!queue_.empty()) {
      Event* ev = queue_.top();
      queue_.pop();
      if (ev->cancelled) {
        ClearRegistrySlot(ev->seq);
        delete ev;
        ++stats_->tombstones_purged;
      } else {
        keep.push_back(ev);
      }
    }
    for (Event* ev : keep) queue_.push(ev);
    tombstones_ = 0;
    ++stats_->compactions;
    CompactRegistry();
  }

  std::priority_queue<Event*, std::vector<Event*>, EventOrder> queue_;
  // Flat cancellation registry, slot = seq - base_seq_. Entries are nulled
  // as events run; the leading executed prefix is dropped periodically.
  std::vector<Event*> pending_;
  uint64_t base_seq_ = 0;
  int64_t tombstones_ = 0;
  uint64_t pops_ = 0;
};

// ---------------------------------------------------------------------------
// Radix-heap scheduler: a monotone priority queue keyed on `when`, with
// arena-allocated event nodes and generation-checked handles.
//
// Simulated time never goes backwards, so every pending entry has
// when >= last_, the time of the latest extraction. An entry lives in
// bucket bit_width(when ^ last_): bucket 0 holds the entries at exactly
// last_, bucket b > 0 those whose highest bit differing from last_ is bit
// b - 1. Invariants (the determinism argument lives in DESIGN.md):
//  - bucket 0 is consumed from head_. It is refilled only once drained, by
//    moving last_ to the minimum of the lowest non-empty bucket and
//    redistributing that bucket in order.
//  - FIFO among ties needs no sort: entries of equal time always share a
//    bucket (the index depends only on when and last_), a direct schedule
//    carries the largest seq so far and appends, and a redistribution
//    moves a whole bucket in order, so within every bucket equal-time
//    entries stay in ascending seq order.
//  - last_ moves only to the time of a live entry that is about to pop,
//    never on a peek that finds it beyond the limit: RunUntil may stop
//    there, and a later ScheduleAt may still land in between.
//  - redistribution only ever moves an entry to a lower bucket, so
//    schedule and pop are O(1) amortized for any spread of event times.
//  - a cancelled event frees its node immediately (generation bump); the
//    entry left behind is a tombstone skipped on pop and removed in bulk by
//    the lazy compaction sweep.
// ---------------------------------------------------------------------------

class Simulation::RadixHeap : public Simulation::QueueImpl {
 public:
  using QueueImpl::QueueImpl;

  uint64_t Schedule(SimTimeMs when, uint64_t seq, Callback cb) override {
    CACKLE_CHECK_GE(when, last_);
    const uint32_t slot = pool_.Alloc();
    Node& node = pool_.at(slot);
    node.cb = std::move(cb);
    node.live = true;
    buckets_[BucketFor(when)].push_back(Entry{when, seq, slot, node.gen});
    ++entries_;
    return MakeId(slot, node.gen);
  }

  bool Cancel(uint64_t id) override {
    const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (static_cast<size_t>(slot) >= pool_.size()) return false;
    Node& node = pool_.at(slot);
    if (!node.live || node.gen != gen) return false;
    FreeNode(slot, node);
    ++tombstones_;
    MaybeCompact();
    return true;
  }

  bool PopNext(SimTimeMs limit, SimTimeMs* when, Callback* cb) override {
    std::vector<Entry>& front = buckets_[0];
    for (;;) {
      if (head_ == front.size()) {
        front.clear();
        head_ = 0;
        if (!Refill(limit)) return false;
      }
      const Entry e = front[head_];
      Node& node = pool_.at(e.slot);
      if (node.gen != e.gen) {
        ++head_;
        --entries_;
        --tombstones_;
        continue;
      }
      if (e.when > limit) return false;
      ++head_;
      --entries_;
      *when = e.when;
      *cb = std::move(node.cb);
      FreeNode(e.slot, node);
      return true;
    }
  }

  int64_t entries() const override { return entries_; }

 private:
  /// bit_width of a 64-bit XOR is 0..64.
  static constexpr size_t kBuckets = 65;

  struct Node {
    Callback cb;
    uint32_t gen = 1;
    bool live = false;
  };
  struct Entry {
    SimTimeMs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };

  static uint64_t MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  size_t BucketFor(SimTimeMs when) const {
    return static_cast<size_t>(std::bit_width(static_cast<uint64_t>(when) ^
                                              static_cast<uint64_t>(last_)));
  }
  /// Every free bumps the node's generation, so an entry whose event was
  /// cancelled (or already ran) never matches it again.
  bool IsStale(const Entry& e) const { return pool_.at(e.slot).gen != e.gen; }

  void FreeNode(uint32_t slot, Node& node) {
    node.cb.reset();
    node.live = false;
    ++node.gen;
    pool_.Free(slot);
  }

  void DropTombstones(int64_t n) {
    entries_ -= n;
    tombstones_ -= n;
  }

  /// Refills the drained bucket 0 from the lowest bucket holding a live
  /// entry. Returns false, with last_ unchanged, when no live entry is left
  /// or the earliest one lies beyond `limit`.
  bool Refill(SimTimeMs limit) {
    for (size_t b = 1; b < kBuckets; ++b) {
      std::vector<Entry>& bucket = buckets_[b];
      if (bucket.empty()) continue;
      // Minimum over live entries. Only an entry that would lower the
      // running minimum is checked against its node, so tombstones below
      // the live minimum are known stale and dropped on redistribution.
      SimTimeMs min_when = kMaxSimTime;
      bool found = false;
      for (const Entry& e : bucket) {
        if ((!found || e.when < min_when) && !IsStale(e)) {
          min_when = e.when;
          found = true;
        }
      }
      if (!found) {
        DropTombstones(static_cast<int64_t>(bucket.size()));
        bucket.clear();
        continue;
      }
      if (min_when > limit) return false;
      last_ = min_when;
      for (const Entry& e : bucket) {
        if (e.when < min_when) {
          DropTombstones(1);
        } else {
          buckets_[BucketFor(e.when)].push_back(e);
        }
      }
      bucket.clear();
      return true;
    }
    return false;
  }

  /// Bulk tombstone sweep, triggered from Cancel once stale entries exceed
  /// both the configured floor and 2x the live population.
  void MaybeCompact() {
    if (tombstones_ <= options_.min_compaction_tombstones ||
        tombstones_ <= 2 * (entries_ - tombstones_)) {
      return;
    }
    std::vector<Entry>& front = buckets_[0];
    front.erase(front.begin(), front.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
    int64_t purged = 0;
    for (std::vector<Entry>& bucket : buckets_) {
      const size_t before = bucket.size();
      bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                  [this](const Entry& e) { return IsStale(e); }),
                   bucket.end());
      purged += static_cast<int64_t>(before - bucket.size());
    }
    entries_ -= purged;
    stats_->tombstones_purged += purged;
    tombstones_ = 0;
    ++stats_->compactions;
  }

  SlabPool<Node> pool_{1024};
  std::array<std::vector<Entry>, kBuckets> buckets_;
  /// Next unconsumed entry of buckets_[0].
  size_t head_ = 0;
  SimTimeMs last_ = 0;
  /// Resident entries in all buckets past head_, tombstones included.
  int64_t entries_ = 0;
  int64_t tombstones_ = 0;
};

// ---------------------------------------------------------------------------
// Simulation facade: clock, sequence numbers, live/executed accounting.
// ---------------------------------------------------------------------------

Simulation::Simulation() : Simulation(SimOptions{}) {}

Simulation::Simulation(const SimOptions& options) : options_(options) {
  if (options_.scheduler == SimScheduler::kBinaryHeap) {
    queue_ = std::make_unique<BinaryHeapQueue>(&stats_, options_);
  } else {
    queue_ = std::make_unique<RadixHeap>(&stats_, options_);
  }
}

Simulation::~Simulation() = default;

uint64_t Simulation::ScheduleAt(SimTimeMs when, Callback cb) {
  CACKLE_CHECK_GE(when, now_) << "cannot schedule in the past";
  const uint64_t id = queue_->Schedule(when, next_seq_++, std::move(cb));
  ++live_events_;
  ++stats_.scheduled;
  stats_.peak_queue_entries =
      std::max(stats_.peak_queue_entries, queue_->entries());
  return id;
}

bool Simulation::Cancel(uint64_t event_id) {
  if (!queue_->Cancel(event_id)) return false;
  --live_events_;
  ++stats_.cancelled;
  return true;
}

int64_t Simulation::RunUntil(SimTimeMs until) {
  int64_t ran = 0;
  SimTimeMs when = 0;
  Callback cb;
  while (queue_->PopNext(until, &when, &cb)) {
    now_ = when;
    --live_events_;
    cb();
    cb.reset();
    ++ran;
    ++executed_;
  }
  // With no live events left, the clock owes the caller the full interval.
  // (Keyed on *live* events: lingering cancelled tombstones must not pin
  // the clock, one of the accounting guarantees regression-tested in
  // simulation_test.)
  if (until > now_ && live_events_ == 0) now_ = until;
  return ran;
}

int64_t Simulation::RunToCompletion() {
  int64_t ran = 0;
  SimTimeMs when = 0;
  Callback cb;
  while (queue_->PopNext(kMaxSimTime, &when, &cb)) {
    now_ = when;
    --live_events_;
    cb();
    cb.reset();
    ++ran;
    ++executed_;
  }
  return ran;
}

int64_t Simulation::queue_entries() const { return queue_->entries(); }

}  // namespace cackle
