// Per-rule frequency counters, for reproducing the Section 5 access-mix
// claim ([Read Same Epoch] 60%, [Write Same Epoch] 14%, [ReadShared Same
// Epoch] 12% -> the three lock-free fast paths cover ~85% of accesses).
//
// Every detector carries an optional RuleStats pointer; when unset (the
// default, and the Table 1 configuration) the only cost is one predictable
// branch per handler exit. When set, each thread bumps its own shard of
// the counters (ShardedCounters below), so inline handlers in different
// target threads never write a shared cache line; a read sums the shards.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace vft {

enum class Rule : std::uint8_t {
  kReadSameEpoch,
  kReadSharedSameEpoch,
  kReadExclusive,
  kReadShare,
  kReadShared,
  kWriteSameEpoch,
  kWriteExclusive,
  kWriteShared,
  kWriteReadRace,
  kWriteWriteRace,
  kReadWriteRace,
  kSharedWriteRace,
  kAcquire,
  kRelease,
  kFork,
  kJoin,
  kVolRead,
  kVolWrite,
  kBarrier,
  // __tsan_atomic* sync accounting (vft/atomics.h). Like the sync rows
  // above these are not data accesses: an atomic op never routes through
  // the access rules, so the rows live past kSharedWriteRace and never
  // perturb total_accesses() or the Table 1 distribution.
  kAtomicLoad,     ///< __tsan_atomicN_load (any order)
  kAtomicStore,    ///< __tsan_atomicN_store (any order)
  kAtomicRmw,      ///< exchange / fetch_* / compare_exchange (any order)
  kAtomicFence,    ///< __tsan_atomic_thread_fence
  kAtomicRelaxed,  ///< of the above, ops that contributed NO sync edge
  // Packed-cell fast-path accounting (vft/packed_cell.h). These are
  // *extra* observations layered over the access rules above: a fast-path
  // hit also bumps its [.. Same Epoch]/[.. Exclusive] rule (the detector
  // never saw the access, so the fast path keeps the Table 1 distribution
  // honest), and a miss is counted here on top of whatever rule the
  // detector then fires. Placed after kBarrier so total_accesses() - which
  // sums only through kSharedWriteRace - never double counts.
  kFastReadHit,   ///< read completed inline against the packed cell
  kFastWriteHit,  ///< write completed inline against the packed cell
  kFastSpill,     ///< escalations won: cell spilled into a full VarState
  kFastMiss,      ///< accesses that fell through to a detector call
  kSampledOut,    ///< accesses gated out by the sampling layer
  kNumRules,
};

inline const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kReadSameEpoch: return "[Read Same Epoch]";
    case Rule::kReadSharedSameEpoch: return "[Read Shared Same Epoch]";
    case Rule::kReadExclusive: return "[Read Exclusive]";
    case Rule::kReadShare: return "[Read Share]";
    case Rule::kReadShared: return "[Read Shared]";
    case Rule::kWriteSameEpoch: return "[Write Same Epoch]";
    case Rule::kWriteExclusive: return "[Write Exclusive]";
    case Rule::kWriteShared: return "[Write Shared]";
    case Rule::kWriteReadRace: return "[Write-Read Race]";
    case Rule::kWriteWriteRace: return "[Write-Write Race]";
    case Rule::kReadWriteRace: return "[Read-Write Race]";
    case Rule::kSharedWriteRace: return "[Shared-Write Race]";
    case Rule::kAcquire: return "[Acquire]";
    case Rule::kRelease: return "[Release]";
    case Rule::kFork: return "[Fork]";
    case Rule::kJoin: return "[Join]";
    case Rule::kVolRead: return "[Volatile Read]";
    case Rule::kVolWrite: return "[Volatile Write]";
    case Rule::kBarrier: return "[Barrier]";
    case Rule::kAtomicLoad: return "[Atomic Load]";
    case Rule::kAtomicStore: return "[Atomic Store]";
    case Rule::kAtomicRmw: return "[Atomic RMW]";
    case Rule::kAtomicFence: return "[Atomic Fence]";
    case Rule::kAtomicRelaxed: return "[Atomic Relaxed]";
    case Rule::kFastReadHit: return "[Fast Read Hit]";
    case Rule::kFastWriteHit: return "[Fast Write Hit]";
    case Rule::kFastSpill: return "[Fast Spill]";
    case Rule::kFastMiss: return "[Fast Miss]";
    case Rule::kSampledOut: return "[Sampled Out]";
    default: return "?";
  }
}

/// The calling thread's counter shard index, shared by every
/// ShardedCounters: a process-wide counter hands it out on the thread's
/// first add, modulo kCount, so threads beyond kCount (or, under thread
/// churn, a later thread whose index wrapped) share a shard with an
/// earlier one - they contend on it, but every add still lands exactly
/// once.
class CounterShard {
 public:
  static constexpr std::uint32_t kCount = 64;  ///< a power of two
  static_assert((kCount & (kCount - 1)) == 0);

  static std::uint32_t mine() {
    const std::uint32_t i = tl_index_;
    return i != kNone ? i : assign();
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  static std::uint32_t assign() {
    const std::uint32_t i =
        next_.fetch_add(1, std::memory_order_relaxed) & (kCount - 1);
    tl_index_ = i;
    return i;
  }

  /// constinit: every TU reads the TLS slot directly, with no
  /// dynamic-init wrapper call (as PageDirectory::tl_cache_).
  inline static constinit thread_local std::uint32_t tl_index_ = kNone;
  inline static std::atomic<std::uint32_t> next_{0};
};

/// N counters, kept as one cache-line-aligned shard per CounterShard
/// index and summed only when read. An add is a relaxed fetch_add on the
/// calling thread's own shard - atomic only because a shard can be
/// shared (see CounterShard) - so threads bumping the same counter never
/// write the same line. A sum is exact at every quiescent point (no add
/// in flight); reset() is quiescent-only.
template <std::size_t N>
class ShardedCounters {
 public:
  void add(std::size_t i, std::uint64_t n = 1) {
    mine()[i].fetch_add(n, std::memory_order_relaxed);
  }

  /// Counter i of the calling thread's shard.
  std::atomic<std::uint64_t>* addr(std::size_t i) { return &mine()[i]; }

  std::uint64_t sum(std::size_t i) const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += s.c[i].load(std::memory_order_relaxed);
    return n;
  }

  void reset() {
    for (Shard& s : shards_) {
      for (auto& c : s.c) c.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, N> c{};
  };

  std::array<std::atomic<std::uint64_t>, N>& mine() {
    return shards_[CounterShard::mine()].c;
  }

  std::array<Shard, CounterShard::kCount> shards_{};
};

class RuleStats {
 public:
  static constexpr std::size_t kN = static_cast<std::size_t>(Rule::kNumRules);

  void bump(Rule r) { counts_.add(static_cast<std::size_t>(r)); }

  /// Bulk bump: n observations of the same rule in one relaxed add. Used by
  /// the SIMD range kernels, which resolve a whole prefix of cells at once.
  void bump(Rule r, std::uint64_t n) {
    counts_.add(static_cast<std::size_t>(r), n);
  }

  /// Address of a rule's counter in the *calling thread's* shard, for the
  /// header-inlined ABI fast path: the thread that arms its descriptor
  /// flushes its inline hits through this pointer (the same relaxed
  /// fetch_add bump() performs), keeping the fast/slow paths bit-identical
  /// on every counter. Only the calling thread should add through it; any
  /// thread's adds still count exactly once.
  std::atomic<std::uint64_t>* counter_addr(Rule r) {
    return counts_.addr(static_cast<std::size_t>(r));
  }

  std::uint64_t count(Rule r) const {
    return counts_.sum(static_cast<std::size_t>(r));
  }

  /// Total read+write accesses (excludes sync operations).
  std::uint64_t total_accesses() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i <= static_cast<std::size_t>(Rule::kSharedWriteRace); ++i) {
      n += counts_.sum(i);
    }
    return n;
  }

  /// Quiescent-only: an add racing the reset may survive it.
  void reset() { counts_.reset(); }

 private:
  ShardedCounters<kN> counts_;
};

}  // namespace vft
