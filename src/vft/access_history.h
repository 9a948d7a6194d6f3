// Per-thread access history: the metadata substrate that lets a race
// report carry BOTH racing stacks.
//
// FastTrack-style last-access shadow state (VarState / PackedCell) keeps
// no history: when a race fires, the prior side is a bare epoch t@c and
// only the *current* access has a capturable stack. This layer remembers,
// per thread id slot, each (variable, kind)'s newest analysed access -
// {variable, full epoch, interned stack id} - so the detector can look the
// prior epoch back up and attach its stack to the report that creates an
// error context (repeats of a known context skip the lookup, report.h).
// The RaceCollector whose reports it serves owns it (RaceCollector::
// history()); a collector without one, or a tool without a collector,
// records nothing.
//
// Retention contract: each tid slot keeps its newest record per (variable,
// access kind), in a direct-mapped table of kSlots slots. That is exactly
// what a race lookup asks for: W, an exclusive R, and a read-shared V[u]
// always name their thread's newest analysed access of that kind. A record
// lost to a slot collision (another variable of the same thread mapping to
// the same slot) degrades the report to the bare prior epoch, never to a
// wrong stack: lookups match variable and full epoch exactly.
//
// Frees leave the history alone. A free re-bottoms the word's shadow, so
// any prior a later race names was installed after the free, by an access
// that recorded and so replaced its thread's older record of that
// (variable, kind). Only a sampled-out access can install an epoch without
// recording; a lookup may then return that thread's pre-free record of the
// same word, kind and exact epoch - still an access unordered with the
// racing one (docs/ALGORITHM.md s17.1).
//
// Cost discipline (the SmartTrack argument: per-variable access metadata
// is affordable iff it stays off the fast path):
//   - recording happens ONLY on the slow path: a same-epoch packed-cell
//     hit and a sampled-out access never record, and a free never touches
//     the tables;
//   - record and find take no lock: only the thread owning a tid writes
//     that tid's table, and each slot is a single-writer seqlock, so
//     readers retry instead of blocking;
//   - stacks are hash-consed into a bounded intern table; a stack the
//     thread interned before resolves through a per-thread front cache
//     without the table's mutex, and lookup() never locks;
//   - a record at an armed boundary first tries a per-thread memo keyed
//     by (table, pc, fp, call serial): a hit reuses the stack id with no
//     walk, hash or intern (docs/ALGORITHM.md s17.4).
//
// Lookup correctness under tid-slot reuse (PR 5): a reused thread slot
// *continues* its predecessor's clock (ThreadState(tid, predecessor)
// copies V and increments), so epochs are strictly monotone per slot and
// an exact full-epoch match (t@c, not just t) can never confuse a
// successor thread's entry with its predecessor's.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "vft/epoch.h"
#include "vft/stack.h"

namespace vft::history {

/// What the recorded access did. Race lookups want the *opposite* side:
/// a write-read race looks for the prior write, a read-write race for the
/// prior read.
enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

inline const char* access_kind_name(AccessKind k) {
  return k == AccessKind::kWrite ? "write" : "read";
}

/// One recorded slow-path access, as find() returns it. stack_id 0 means
/// "no stack was interned" (empty capture or intern table full).
struct Entry {
  std::uint32_t stack_id = 0;
  Epoch epoch;  ///< full t@c at the access; the tid names the table
  AccessKind kind = AccessKind::kRead;
};

/// Hash-consed bounded stack interning. Ids are 1-based; 0 is reserved
/// for "no stack". The table never shrinks and is capped at kMaxStacks
/// distinct stacks; beyond that intern() returns 0 and counts the drop
/// (reports then degrade to a stack-less prior, exactly like pre-history
/// reports).
///
/// Stacks live in append-only chunks published with release stores, so
/// lookup() reads without a lock. intern() first tries a per-thread
/// front cache tagged by table instance; only a miss takes the mutex.
class StackTable {
 public:
  static constexpr std::size_t kMaxStacks = std::size_t{1} << 16;

  StackTable();
  ~StackTable();
  StackTable(const StackTable&) = delete;
  StackTable& operator=(const StackTable&) = delete;

  /// Intern `cs`, returning its id (0 for an empty stack or a full table).
  std::uint32_t intern(const CallStack& cs);

  /// intern(capture_event_stack()), through the calling thread's record
  /// memo when a boundary is armed: the id an earlier call interned at
  /// the same event_ctx pc and fp, under the same call serial
  /// (vft/event_ctx.h), is returned with no capture. Only non-zero ids
  /// are memoized, so every record against a full table counts a drop.
  std::uint32_t intern_current();

  /// Copy the stack for `id` into *out. False for id 0 / unknown ids.
  bool lookup(std::uint32_t id, CallStack* out) const;

  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kChunkStacks = 256;
  static constexpr std::size_t kChunks = kMaxStacks / kChunkStacks;

  /// The stack for `id` in [1, size()]: published, never rewritten.
  const CallStack& at(std::uint32_t id) const {
    const CallStack* chunk =
        chunks_[(id - 1) / kChunkStacks].load(std::memory_order_acquire);
    return chunk[(id - 1) % kChunkStacks];
  }

  std::uint32_t intern_locked(const CallStack& cs, std::uint64_t h);

  const std::uint64_t uid_;  ///< front-cache tag; unique per instance
  std::mutex mu_;            ///< front-cache misses only
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  std::atomic<CallStack*> chunks_[kChunks] = {};
  std::atomic<std::uint32_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// One collector's access history: one lazily allocated, direct-mapped
/// table per tid slot plus the shared stack intern table. find() is
/// thread-safe; record() is for the thread owning the epoch's tid. None
/// are on the same-epoch fast path.
class AccessHistory {
 public:
  /// Slots per tid table: 24 bytes each, so 96 KiB per recording tid.
  static constexpr std::size_t kSlots = 4096;

  AccessHistory() = default;
  ~AccessHistory();
  AccessHistory(const AccessHistory&) = delete;
  AccessHistory& operator=(const AccessHistory&) = delete;

  /// The slot (var, kind) occupies in every tid's table. The kind picks
  /// the slot's parity, so a variable's read and write never evict each
  /// other. Production variable ids are word addresses: any run of fewer
  /// than kSlots / 2 consecutive words fills distinct slots, and adding
  /// in the higher bits spreads power-of-two strides. The low three bits
  /// are added in too, for variable ids that are not addresses.
  static std::size_t slot_index(std::uint64_t var, AccessKind kind) {
    const std::uint64_t w = (var >> 3) + (var >> 14) + ((var & 7) << 8);
    return static_cast<std::size_t>(((w << 1) | static_cast<unsigned>(kind)) &
                                    (kSlots - 1));
  }

  /// Record one slow-path access with an explicit stack (tests, replay)
  /// into epoch.tid()'s table, replacing that slot's previous record.
  /// Precondition: calls for one tid never overlap - the thread that owns
  /// epoch.tid() is that table's only writer (a reused tid slot's
  /// successor starts after its predecessor retired).
  void record(std::uint64_t var, Epoch epoch, AccessKind kind,
              const CallStack& stack) {
    store(var, epoch, kind, stacks_.intern(stack));
  }

  /// Record the in-flight access with the armed event-ctx stack
  /// (capture_event_stack, through StackTable::intern_current's memo).
  void record_current(std::uint64_t var, Epoch epoch, AccessKind kind) {
    store(var, epoch, kind, stacks_.intern_current());
  }

  /// Look up the prior side of a race: epoch.tid()'s record of exactly
  /// (var, want, epoch). False when that thread recorded a newer access of
  /// the same (var, want), a collision evicted it, it was never recorded,
  /// or `epoch` is SHARED (no single prior).
  bool find(std::uint64_t var, Epoch epoch, AccessKind want, Entry* out) const;

  /// Resolve an interned stack id; false for 0 / unknown.
  bool stack_of(std::uint32_t id, CallStack* out) const {
    return stacks_.lookup(id, out);
  }

  std::uint64_t stack_drops() const { return stacks_.dropped(); }
  std::size_t interned_stacks() const { return stacks_.size(); }

 private:
  /// A seqlock-versioned record. `seq` is even when stable; its one
  /// writer (the thread owning the table's tid) stores the next odd
  /// value, the fields, then the next even value. An empty slot holds
  /// epoch 0@0, which no access carries (clocks start at 1).
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint32_t> epoch{0};  ///< Epoch::bits()
    std::atomic<std::uint64_t> var{0};
    std::atomic<std::uint32_t> stack_id{0};
  };
  static_assert(sizeof(Slot) == 24);

  struct Table {
    Slot slots[kSlots];
  };

  static constexpr std::size_t kTables = std::size_t{Epoch::kMaxTid} + 1;

  Table& table_of(Tid t) {
    Table* cur = tables_[t].load(std::memory_order_acquire);
    return cur != nullptr ? *cur : publish_table(t);
  }
  Table& publish_table(Tid t);
  void store(std::uint64_t var, Epoch epoch, AccessKind kind,
             std::uint32_t stack_id);

  std::atomic<Table*> tables_[kTables] = {};
  StackTable stacks_;
};

/// VFT_HISTORY env gate: default ON; "0"/"off"/"false" disables.
bool enabled_from_env();

}  // namespace vft::history
