// The two-level PackedShadowSpace: geometry (word granularity, page
// straddling), lock-free publication under thread hammering, the range
// entry points, the per-page sync side table (contended creation, exact-
// address resets, teardown), and - the load-bearing property - parity:
// wrapper-based and raw-pointer instrumentation of the same memory produce
// identical race verdicts for every detector variant.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "runtime/instrument.h"

namespace vft::rt {
namespace {

using Geometry = ShadowGeometry;

TEST(ShadowSpace, WordGranularSlots) {
  PackedShadowSpace<VftV2> space;
  alignas(8) char bytes[24] = {};
  // Same 8-byte word -> same cell; different word -> different.
  EXPECT_EQ(&space.cell_of(&bytes[0]), &space.cell_of(&bytes[7]));
  EXPECT_NE(&space.cell_of(&bytes[0]), &space.cell_of(&bytes[8]));
  EXPECT_NE(&space.cell_of(&bytes[8]), &space.cell_of(&bytes[16]));
  // The id is the word base address (stable across aliases), and a spilled
  // VarState inherits it.
  EXPECT_EQ(space.slot_of(&bytes[7]).id,
            reinterpret_cast<std::uint64_t>(&bytes[0]));
  EXPECT_EQ(space.of(&bytes[7]).id, reinterpret_cast<std::uint64_t>(&bytes[0]));
  EXPECT_EQ(space.pages(), 1u);
}

TEST(ShadowSpace, PageStraddlingAddressesGetDistinctPages) {
  PackedShadowSpace<VftV2> space;
  std::vector<double> big(3 * Geometry::kPageSpan / sizeof(double));
  const auto base = reinterpret_cast<std::uintptr_t>(big.data());
  // Words just left and right of every page boundary in the buffer.
  std::vector<PackedShadowSpace<VftV2>::Slot> slots;
  for (std::uintptr_t a = (base + Geometry::kPageSpan) &
                          ~static_cast<std::uintptr_t>(Geometry::kPageSpan - 1);
       a + Geometry::kGranularity <
       base + 3 * Geometry::kPageSpan / sizeof(double) * sizeof(double);
       a += Geometry::kPageSpan) {
    const auto left =
        space.slot_of(reinterpret_cast<void*>(a - Geometry::kGranularity));
    const auto right = space.slot_of(reinterpret_cast<void*>(a));
    EXPECT_NE(left.cell, right.cell);
    slots.push_back(left);
    slots.push_back(right);
  }
  EXPECT_GE(space.pages(), 2u);
  // Lookups are idempotent: every word re-resolves to the same cell.
  for (const auto& s : slots) {
    EXPECT_EQ(&space.cell_of(reinterpret_cast<void*>(s.id)), s.cell);
  }
}

TEST(ShadowSpace, ConcurrentLookupsAgreeOnOverlappingAddresses) {
  PackedShadowSpace<VftV2> space;
  // A window spanning several pages; every thread resolves every word,
  // including the page-straddling ones, racing on first-touch publication.
  constexpr std::size_t kWords = 4 * Geometry::kSlotsPerPage + 17;
  std::vector<std::uint64_t> data(kWords);
  constexpr int kThreads = 8;
  std::vector<std::vector<PackedCell*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].reserve(kWords);
      for (std::size_t i = 0; i < kWords; ++i) {
        seen[t].push_back(&space.cell_of(&data[i]));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(seen[t], seen[0]);  // all threads resolved identical cells
  }
  // kWords words never straddle more than pages+1 pages.
  EXPECT_GE(space.pages(), kWords / Geometry::kSlotsPerPage);
  EXPECT_LE(space.pages(), kWords / Geometry::kSlotsPerPage + 2);
}

// Every thread counts its own page-cache misses; the stats sum them. A
// fresh thread's one-entry cache is empty, and alternating between two
// pages evicts it on every lookup, so each thread misses exactly twice
// per round.
TEST(ShadowSpace, CacheMissesSumAcrossThreads) {
  PackedShadowSpace<VftV2> space;
  std::vector<std::uint64_t> buf(2 * Geometry::kSlotsPerPage);
  const void* page_a = buf.data();
  const void* page_b = buf.data() + Geometry::kSlotsPerPage;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRounds = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t k = 0; k < kRounds; ++k) {
        (void)space.cell_of(page_a);
        (void)space.cell_of(page_b);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(space.stats().cache_misses, kThreads * 2 * kRounds);
}

TEST(ShadowSpace, RangeVariantsWalkWords) {
  RaceCollector rc;
  RuleStats stats;
  Runtime<VftV2> R{VftV2(&rc, &stats)};
  Runtime<VftV2>::MainScope scope(R);
  PackedShadowSpace<VftV2>& space = R.packed_space();
  struct Blob {
    std::uint64_t a, b, c;
  };
  alignas(8) Blob blob{};
  EXPECT_TRUE(space.access<true>(R.tool(), R.self(), &blob, sizeof(blob)));
  // Three words -> three write events, all [Write Exclusive] first touch.
  EXPECT_EQ(stats.count(Rule::kWriteExclusive), 3u);
  EXPECT_TRUE(space.access<false>(R.tool(), R.self(), &blob, sizeof(blob)));
  EXPECT_TRUE(rc.empty());
  // Unaligned sub-range still covers the words it overlaps.
  const auto before = stats.count(Rule::kReadSameEpoch) +
                      stats.count(Rule::kReadExclusive);
  EXPECT_TRUE(space.access<false>(R.tool(), R.self(),
                                  reinterpret_cast<char*>(&blob) + 4,
                                  8));  // straddles a|b
  const auto after = stats.count(Rule::kReadSameEpoch) +
                     stats.count(Rule::kReadExclusive);
  EXPECT_EQ(after - before, 2u);
}

TEST(ShadowSpace, ConcurrentRangeAccessesUnderRealThreads) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  PackedShadowSpace<VftV2>& space = R.packed_space();
  // Page-straddling buffer: a 64-word read-only prefix every thread
  // sweeps (read-shared) plus disjoint written slices behind it. Threads
  // race on page *publication* at slice boundaries, never on data.
  constexpr std::size_t kWords = 2 * Geometry::kSlotsPerPage + 128;
  std::vector<std::uint64_t> buf(kWords);
  constexpr std::uint32_t kThreads = 4;
  constexpr std::size_t kShared = 64;
  parallel_for_threads(R, kThreads, [&](std::uint32_t w) {
    const std::size_t chunk = (kWords - kShared) / kThreads;
    for (int rep = 0; rep < 8; ++rep) {
      space.access<true>(R.tool(), R.self(), &buf[kShared + w * chunk],
                         chunk * sizeof(std::uint64_t));
      space.access<false>(R.tool(), R.self(), buf.data(),
                          kShared * sizeof(std::uint64_t));
    }
  });
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
  EXPECT_GE(space.pages(), 2u);
}

// --- The per-page sync side table (lock_of / atomic_of).

TEST(ShadowSpace, ContendedSyncCreationYieldsOneObjectPerAddress) {
  constexpr int kThreads = 4;
  // Two 4-byte sync objects in one shadow word: keyed by exact address,
  // they are two objects, each created once however many threads race to
  // create it (and the page and its sync table with it).
  alignas(8) std::uint32_t word[2] = {0, 0};
  for (int round = 0; round < 20; ++round) {
    PackedShadowSpace<VftV2> space;
    std::vector<LockState*> locks(kThreads);
    std::vector<atomics::AtomicState*> atoms(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_relaxed);
        while (ready.load(std::memory_order_relaxed) < kThreads) {
          std::this_thread::yield();
        }
        if (t % 2 == 0) {
          locks[t] = &space.lock_of(&word[0]);
          atoms[t] = &space.atomic_of(&word[1]);
        } else {
          atoms[t] = &space.atomic_of(&word[1]);
          locks[t] = &space.lock_of(&word[0]);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(locks[t], locks[0]);
      EXPECT_EQ(atoms[t], atoms[0]);
    }
    EXPECT_EQ(space.sync_objects(), 2u);
    EXPECT_EQ(space.locks(), 1u);
    EXPECT_NE(&space.atomic_of(&word[0]), &space.atomic_of(&word[1]));
    EXPECT_EQ(space.sync_objects(), 2u);
  }
}

TEST(ShadowSpace, SyncResetDropsOnlyObjectsInsideTheRange) {
  PackedShadowSpace<VftV2> space;
  // w[0], w[1] share one shadow word; w[2], w[3] share the next.
  alignas(16) std::uint32_t w[4] = {0, 0, 0, 0};
  const Epoch e = Epoch::make(0, 5);
  for (int i = 0; i < 3; ++i) space.lock_of(&w[i]).V.set(0, e);
  atomics::AtomicState& a3 = space.atomic_of(&w[3]);
  a3.sync_V.set(0, e);
  a3.fast_epoch.store(e.bits());
  EXPECT_EQ(space.locks(), 3u);

  // A sub-word range: only w[1]'s state goes, not its word neighbour's.
  space.reset_range(&w[1], sizeof(w[1]));
  EXPECT_EQ(space.locks(), 2u);
  EXPECT_EQ(space.lock_of(&w[0]).V.get(0).bits(), e.bits());
  EXPECT_EQ(space.lock_of(&w[2]).V.get(0).bits(), e.bits());
  EXPECT_EQ(a3.sync_V.get(0).bits(), e.bits());

  // The reset object is the same object, back at bottom, and counts again
  // once it is used as a lock again.
  LockState& l1 = space.lock_of(&w[1]);
  EXPECT_EQ(l1.V.get(0).bits(), Epoch::bottom(0).bits());
  EXPECT_EQ(space.locks(), 3u);

  // The next word: its lock and its atomic both go back to bottom.
  space.reset_range(&w[2], 2 * sizeof(w[2]));
  EXPECT_EQ(space.locks(), 2u);
  EXPECT_EQ(a3.sync_V.get(0).bits(), Epoch::bottom(0).bits());
  EXPECT_EQ(a3.fast_epoch.load(), 0u);
  EXPECT_EQ(&space.atomic_of(&w[3]), &a3);
  EXPECT_EQ(space.lock_of(&w[0]).V.get(0).bits(), e.bits());
  EXPECT_EQ(space.sync_objects(), 4u);
}

TEST(ShadowSpace, DestroyingTheSpaceFreesItsSyncTables) {
  // Sync objects on three or four pages, two in each word used, a few
  // reset: the page destructor frees every side table and chain. Under
  // the ASan job LeakSanitizer fails this test otherwise.
  std::vector<std::uint64_t> mem(3 * Geometry::kPageSpan /
                                 sizeof(std::uint64_t));
  PackedShadowSpace<VftV2> space;
  space.cell_of(mem.data());
  const std::size_t before = space.stats().bytes;
  space.lock_of(mem.data());
  // The page's side table (one head per word) counts in the footprint.
  EXPECT_GE(space.stats().bytes - before,
            Geometry::kSlotsPerPage * sizeof(void*));
  std::size_t objects = 0;
  for (std::size_t i = 0; i < mem.size(); i += 64) {
    space.lock_of(&mem[i]);
    space.atomic_of(reinterpret_cast<char*>(&mem[i]) + 4);
    objects += 2;
  }
  space.reset_range(mem.data(), 64 * sizeof(std::uint64_t));
  EXPECT_EQ(space.sync_objects(), objects);
}

TEST(ShadowSpace, ArrayCarvedFromSpaceAgreesWithRawPointers) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Array<double, VftV2> a(R, R.packed_space(), 8, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The wrapper's VarState is exactly the space's VarState for the
    // element address: wrapper and raw instrumentation agree.
    EXPECT_EQ(&a.shadow(i), &R.packed_space().of(&a.data()[i]));
  }
  a.store(3, 1.0);
  EXPECT_TRUE(R.packed_space().access<false>(R.tool(), R.self(),
                                             &a.data()[3], sizeof(double)));
  EXPECT_TRUE(rc.empty());
}

// --- Parity: identical race verdicts across API paths and backends ---------

/// One deterministic schedule, driven from two sequentially-scoped
/// ThreadStates with no ordering edge between them (so the racy steps are
/// the same every run):
///   t0: write x      -> clean first write
///   t1: read  x      -> write-read race
///   t1: write y      -> clean
///   t0: write y      -> write-write race
///   t0: read  z, t1: read z -> read-share, no race
struct Verdict {
  std::size_t reports;
  /// Each error context's kind and count, in first-seen order.
  std::vector<std::pair<RaceKind, std::uint64_t>> contexts;

  bool operator==(const Verdict&) const = default;
};

template <typename D, typename Access>
Verdict run_schedule(Access&& acc) {
  // acc(rt, which_thread, op{0=read,1=write}, loc{0,1,2})
  RaceCollector rc;
  Runtime<D> R{D(&rc)};
  ThreadState& t0 = R.registry().create();
  ThreadState& t1 = R.registry().create();
  auto step = [&](ThreadState& ts, int op, int loc) {
    Registry::ThreadScope scope(ts);
    acc(R, op, loc);
  };
  step(t0, 1, 0);
  step(t1, 0, 0);
  step(t1, 1, 1);
  step(t0, 1, 1);
  step(t0, 0, 2);
  step(t1, 0, 2);
  Verdict v;
  v.reports = rc.count();
  for (const RaceContext& c : rc.contexts()) {
    v.contexts.emplace_back(c.first.kind, c.count);
  }
  return v;
}

template <typename D>
void expect_parity() {
  // Raw-pointer path, on word-aligned locations.
  alignas(8) static thread_local std::uint64_t raw_locs[3];
  PackedShadowSpace<D> space;
  const Verdict via_space =
      run_schedule<D>([&space](Runtime<D>& R, int op, int loc) {
        if (op == 1) {
          space.template access<true>(R.tool(), R.self(), &raw_locs[loc],
                                      sizeof(std::uint64_t));
        } else {
          space.template access<false>(R.tool(), R.self(), &raw_locs[loc],
                                       sizeof(std::uint64_t));
        }
      });

  // Wrapper path: an Array carved from a fresh space, driven through
  // load/store (needs a live runtime reference inside the accessor).
  RaceCollector rc;
  Runtime<D> R{D(&rc)};
  ThreadState& t0 = R.registry().create();
  ThreadState& t1 = R.registry().create();
  Array<std::uint64_t, D> arr(R, R.packed_space(), 3, 0);
  auto wrapped_step = [&](ThreadState& ts, int op, int loc) {
    Registry::ThreadScope scope(ts);
    if (op == 1) {
      arr.store(static_cast<std::size_t>(loc), 1);
    } else {
      arr.load(static_cast<std::size_t>(loc));
    }
  };
  wrapped_step(t0, 1, 0);
  wrapped_step(t1, 0, 0);
  wrapped_step(t1, 1, 1);
  wrapped_step(t0, 1, 1);
  wrapped_step(t0, 0, 2);
  wrapped_step(t1, 0, 2);
  Verdict via_wrapper;
  via_wrapper.reports = rc.count();
  for (const RaceContext& c : rc.contexts()) {
    via_wrapper.contexts.emplace_back(c.first.kind, c.count);
  }

  EXPECT_GE(via_space.reports, 2u) << D::kName;  // both races reported
  EXPECT_EQ(via_space, via_wrapper) << D::kName;
}

TEST(ShadowParity, IdenticalVerdictsAcrossApis) {
  expect_parity<VftV1>();
  expect_parity<VftV15>();
  expect_parity<VftV2>();
  expect_parity<FtMutex>();
  expect_parity<FtCas>();
  expect_parity<Djit>();
}

TEST(ShadowParity, OrderedAccessesStayClean) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  alignas(8) std::uint64_t x = 0;
  auto& space = R.packed_space();
  space.access<true>(R.tool(), R.self(), &x, sizeof(x));
  Thread<VftV2> child(R, [&] {
    space.access<true>(R.tool(), R.self(), &x, sizeof(x));  // ordered by fork
  });
  child.join();
  space.access<false>(R.tool(), R.self(), &x, sizeof(x));  // ordered by join
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

}  // namespace
}  // namespace vft::rt
