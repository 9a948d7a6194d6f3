// Address-keyed side table from target sync objects to their shadow state:
// the one container behind the native-lock registry (LockState per
// pthread_mutex_t*, runtime/lock_registry.h) and the atomic registry
// (AtomicState per __tsan_atomic* location, vft/atomics.h).
//
// The contract both need from it:
//
//   Stability  a state reference stays valid until a reset_range covering
//              its address (entries are never erased behind a handler's
//              back), so handlers run against it without the shard lock.
//   Agreement  every alias of the address maps to the same state.
//   Reuse      reset_range drops the states of freed memory, so a
//              recycled address starts from a bottom clock instead of the
//              dead object's.
//
// Locking: 64 hash shards, each a mutex-guarded map. Sync operations
// already serialize on the target object (and, for pthreads, a futex
// syscall), so a short shard critical section on the lookup is noise.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace vft {

/// `kAlignLog2` low key bits are dropped before mixing (each registry
/// picks it from its objects' alignment), so neighbouring objects still
/// spread over the shards.
template <typename State, unsigned kAlignLog2>
class AddressTable {
 public:
  AddressTable() = default;
  AddressTable(const AddressTable&) = delete;
  AddressTable& operator=(const AddressTable&) = delete;

  /// The state identified by `addr`, created bottom on first use.
  State& of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Shard& s = shard_of(a);
    std::scoped_lock lk(s.mu);
    auto& slot = s.map[a];
    if (slot == nullptr) slot = std::make_unique<State>();
    return *slot;
  }

  /// Drop every state whose address lies in [addr, addr+size): the target
  /// freed that memory. The caller must guarantee no handler is
  /// concurrently using a dropped state - true for any target that does
  /// not free a sync object another thread still uses (undefined
  /// behaviour in pthreads and C++ anyway).
  void reset_range(const void* addr, std::size_t size) {
    const auto lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + size;
    for (Shard& s : shards_) {
      std::scoped_lock lk(s.mu);
      for (auto it = s.map.begin(); it != s.map.end();) {
        if (it->first >= lo && it->first < hi) {
          it = s.map.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  /// Number of distinct addresses seen so far.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::scoped_lock lk(s.mu);
      n += s.map.size();
    }
    return n;
  }

 private:
  static constexpr std::size_t kShards = 64;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uintptr_t, std::unique_ptr<State>> map;
  };

  Shard& shard_of(std::uintptr_t a) {
    std::uintptr_t x = a >> kAlignLog2;
    x ^= x >> 17;
    x *= 0x9E3779B97F4A7C15ull;
    return shards_[(x >> 32) & (kShards - 1)];
  }

  Shard shards_[kShards];
};

}  // namespace vft
