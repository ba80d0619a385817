#ifndef CACKLE_EXEC_FLAT_HASH_H_
#define CACKLE_EXEC_FLAT_HASH_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace cackle::exec {

/// Strong 64-bit mixer (splitmix64 finalizer). Packed keys are often dense
/// small integers, so the identity hash would cluster; this spreads them.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Open-addressing (linear probing, power-of-two capacity) map from
/// `uint64_t` packed keys to non-negative `int64_t` values.
///
/// This is the build side of the executor's vectorized hash join /
/// aggregate: one flat allocation, no per-key nodes, no chaining pointers.
/// Values are row or group ids, always >= 0; -1 marks an empty slot, so no
/// separate occupancy bitmap is needed. Grows at 7/8 load factor.
class FlatMap64 {
 public:
  explicit FlatMap64(int64_t expected = 0) {
    size_t cap = 16;
    while (cap * 7 < static_cast<size_t>(expected < 0 ? 0 : expected) * 8) {
      cap *= 2;
    }
    keys_.assign(cap, 0);
    vals_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }

  int64_t size() const { return size_; }
  int64_t capacity() const { return static_cast<int64_t>(vals_.size()); }
  int64_t resizes() const { return resizes_; }

  /// Returns the value slot for `key`, inserting `fresh` when absent;
  /// `*inserted` reports which happened.
  int64_t FindOrInsert(uint64_t key, int64_t fresh, bool* inserted) {
    return FindOrInsertHashed(key, Mix64(key), fresh, inserted);
  }

  /// FindOrInsert with the caller-supplied hash (must equal Mix64(key));
  /// lets batch loops compute each hash once and share it with Prefetch.
  int64_t FindOrInsertHashed(uint64_t key, uint64_t hash, int64_t fresh,
                             bool* inserted) {
    size_t idx = hash & mask_;
    for (;;) {
      if (vals_[idx] == kEmpty) {
        keys_[idx] = key;
        vals_[idx] = fresh;
        ++size_;
        *inserted = true;
        if (static_cast<size_t>(size_) * 8 > mask_ * 7) Grow();
        return fresh;
      }
      if (keys_[idx] == key) {
        *inserted = false;
        return vals_[idx];
      }
      idx = (idx + 1) & mask_;
    }
  }

  /// Overwrites the value for `key` (which must already be present or be
  /// freshly inserted via FindOrInsert).
  void Update(uint64_t key, int64_t value) {
    size_t idx = Mix64(key) & mask_;
    while (vals_[idx] != kEmpty) {
      if (keys_[idx] == key) {
        vals_[idx] = value;
        return;
      }
      idx = (idx + 1) & mask_;
    }
    CACKLE_CHECK(false) << "FlatMap64::Update of absent key";
  }

  /// Value for `key`, or -1 when absent.
  int64_t Find(uint64_t key) const { return FindHashed(key, Mix64(key)); }

  /// Find with the caller-supplied hash (must equal Mix64(key)).
  int64_t FindHashed(uint64_t key, uint64_t hash) const {
    size_t idx = hash & mask_;
    while (vals_[idx] != kEmpty) {
      if (keys_[idx] == key) return vals_[idx];
      idx = (idx + 1) & mask_;
    }
    return kEmpty;
  }

  /// Prefetches the home slot for `hash`; batch probe loops issue a wave of
  /// prefetches, then probe, hiding the table's cache misses.
  void Prefetch(uint64_t hash) const {
    const size_t idx = hash & mask_;
    __builtin_prefetch(&keys_[idx]);
    __builtin_prefetch(&vals_[idx]);
  }

 private:
  static constexpr int64_t kEmpty = -1;

  void Grow() {
    const size_t new_cap = (mask_ + 1) * 2;
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<int64_t> old_vals = std::move(vals_);
    keys_.assign(new_cap, 0);
    vals_.assign(new_cap, kEmpty);
    mask_ = new_cap - 1;
    for (size_t i = 0; i < old_vals.size(); ++i) {
      if (old_vals[i] == kEmpty) continue;
      size_t idx = Mix64(old_keys[i]) & mask_;
      while (vals_[idx] != kEmpty) idx = (idx + 1) & mask_;
      keys_[idx] = old_keys[i];
      vals_[idx] = old_vals[i];
    }
    ++resizes_;
  }

  std::vector<uint64_t> keys_;
  std::vector<int64_t> vals_;
  size_t mask_ = 0;
  int64_t size_ = 0;
  int64_t resizes_ = 0;
};

}  // namespace cackle::exec

#endif  // CACKLE_EXEC_FLAT_HASH_H_
