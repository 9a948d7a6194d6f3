// Native-lock registry: the address-keyed map from target lock objects
// (pthread_mutex_t*, or any stable address acting as a lock identity) to
// their LockState shadow.
//
// The rt::Mutex wrapper owns its LockState inline; an unmodified binary's
// mutexes are just addresses the interposer observes, so the session keeps
// this side table instead - the lock analogue of the shadow space's
// address->cell mapping, with the same two properties the Section 4
// runtime discipline needs:
//
//   Stability  a LockState reference stays valid for the whole session
//              (entries are never erased behind a handler's back), so the
//              acquire/release handlers can run against it while holding
//              only the target lock itself.
//   Agreement  every alias of the lock address maps to the same LockState.
//
// Reuse safety mirrors the shadow space: if the target frees a mutex and the
// allocator recycles the address for a new one, the new lock would inherit
// the old release clock (sound - it only adds happens-before edges - but
// stale). free()/munmap() interposition calls reset_range(), which drops
// entries covered by the freed block so a recycled address starts from a
// bottom clock.
//
// Locking: a sharded hash map guarded by per-shard mutexes. Lock
// operations already serialize on the target lock and (for pthreads) a
// futex syscall, so a short shard critical section on the lookup is noise;
// the LockState itself is then accessed under the target lock per the
// discipline, not under the shard mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "vft/shadow_state.h"

namespace vft::rt {

class LockRegistry {
 public:
  LockRegistry() = default;
  LockRegistry(const LockRegistry&) = delete;
  LockRegistry& operator=(const LockRegistry&) = delete;

  /// The LockState identified by `addr`, created bottom on first use.
  /// The reference is stable until a reset_range covering `addr`.
  LockState& of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Shard& s = shard_of(a);
    std::scoped_lock lk(s.mu);
    auto& slot = s.map[a];
    if (slot == nullptr) slot = std::make_unique<LockState>();
    return *slot;
  }

  /// Drop every lock whose address lies in [addr, addr+size): the target
  /// freed that memory, so a later lock at a recycled address must start
  /// from a bottom clock, not the dead lock's release time. The caller
  /// must guarantee no handler is concurrently using a dropped LockState -
  /// true for any target that does not free a mutex another thread still
  /// holds (which is undefined behaviour in pthreads anyway).
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

  /// Number of distinct locks seen so far.
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
    std::unordered_map<std::uintptr_t, std::unique_ptr<LockState>> map;
  };

  Shard& shard_of(std::uintptr_t a) {
    // Mutexes are at least word-aligned; drop the low bits before mixing
    // so neighbouring locks still spread over shards.
    std::uintptr_t x = a >> 4;
    x ^= x >> 17;
    x *= 0x9E3779B97F4A7C15ull;
    return shards_[(x >> 32) & (kShards - 1)];
  }

  Shard shards_[kShards];
};

}  // namespace vft::rt
