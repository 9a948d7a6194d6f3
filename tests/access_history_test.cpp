// Unit tests for the per-thread access history (vft/access_history.h):
// stack interning and its per-thread front cache, the newest-record-per-
// (variable, kind) retention contract, tid-slot reuse safety, slot
// collisions, range reset from another thread, concurrent record / reset
// / find, the shadow-stack fallback in capture_event_stack (prior-side
// capture with no armed boundary), the detector-level prior-stack lookup,
// and rule-counter parity with the history layer on vs off.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "vft/access_history.h"
#include "vft/djit.h"
#include "vft/epoch.h"
#include "vft/event_ctx.h"
#include "vft/ft_cas.h"
#include "vft/ft_mutex.h"
#include "vft/report.h"
#include "vft/shadow_state.h"
#include "vft/stack.h"
#include "vft/stats.h"
#include "vft/vft_v1.h"
#include "vft/vft_v15.h"
#include "vft/vft_v2.h"

namespace vft {
namespace {

CallStack stack_of(std::initializer_list<std::uintptr_t> pcs) {
  CallStack cs;
  for (std::uintptr_t pc : pcs) cs.push(pc);
  return cs;
}

// ---------------------------------------------------------------------------
// StackTable

TEST(StackTable, InternDeduplicatesAndRoundTrips) {
  history::StackTable table;
  const CallStack a = stack_of({0x1000, 0x2000});
  const CallStack b = stack_of({0x1000, 0x2000, 0x3000});

  const std::uint32_t ida = table.intern(a);
  const std::uint32_t idb = table.intern(b);
  EXPECT_NE(ida, 0u);
  EXPECT_NE(idb, 0u);
  EXPECT_NE(ida, idb);
  // Same frames intern to the same id - no growth.
  EXPECT_EQ(table.intern(a), ida);
  EXPECT_EQ(table.intern(b), idb);
  EXPECT_EQ(table.size(), 2u);

  CallStack out;
  ASSERT_TRUE(table.lookup(ida, &out));
  EXPECT_EQ(out, a);
  ASSERT_TRUE(table.lookup(idb, &out));
  EXPECT_EQ(out, b);
}

TEST(StackTable, EmptyStackIsIdZeroAndLookupFails) {
  history::StackTable table;
  EXPECT_EQ(table.intern(CallStack{}), 0u);
  CallStack out;
  EXPECT_FALSE(table.lookup(0, &out));
  EXPECT_FALSE(table.lookup(42, &out));  // never interned
}

TEST(StackTable, FrontCacheIsPerTableInstance) {
  // The calling thread's front cache remembers a -> 1 and b -> 2 for the
  // first table. A second table must not hit those entries: it interns b
  // first, so b is its id 1.
  const CallStack a = stack_of({0x1000});
  const CallStack b = stack_of({0x2000});
  {
    history::StackTable first;
    EXPECT_EQ(first.intern(a), 1u);
    EXPECT_EQ(first.intern(b), 2u);
    EXPECT_EQ(first.intern(b), 2u);  // front-cache hit
  }
  history::StackTable second;
  EXPECT_EQ(second.intern(b), 1u);
  EXPECT_EQ(second.intern(a), 2u);
  CallStack out;
  ASSERT_TRUE(second.lookup(1, &out));
  EXPECT_EQ(out, b);
}

// ---------------------------------------------------------------------------
// AccessHistory

TEST(AccessHistory, RecordThenFindExactEpochAndKind) {
  history::AccessHistory h;
  const std::uint64_t var = 0xdead00;
  h.record(var, Epoch::make(1, 3), history::AccessKind::kWrite,
           stack_of({0x5000, 0x5100}));

  history::Entry e;
  ASSERT_TRUE(h.find(var, Epoch::make(1, 3), history::AccessKind::kWrite, &e));
  EXPECT_EQ(e.epoch, Epoch::make(1, 3));
  EXPECT_EQ(e.kind, history::AccessKind::kWrite);
  CallStack cs;
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0x5000, 0x5100}));

  // Kind and epoch must match exactly.
  EXPECT_FALSE(h.find(var, Epoch::make(1, 3), history::AccessKind::kRead, &e));
  EXPECT_FALSE(h.find(var, Epoch::make(1, 4), history::AccessKind::kWrite, &e));
  EXPECT_FALSE(h.find(var, Epoch::make(2, 3), history::AccessKind::kWrite, &e));
  EXPECT_FALSE(h.find(var, Epoch::shared(), history::AccessKind::kWrite, &e));
  // Unknown variable: nothing.
  EXPECT_FALSE(h.find(0xbeef00, Epoch::make(1, 3),
                      history::AccessKind::kWrite, &e));
}

TEST(AccessHistory, SlotReuseDoesNotMasquerade) {
  // PR 5's tid-slot reuse machinery continues a retired thread's clock
  // (ThreadState(tid, predecessor)), so epochs on a reused slot are
  // strictly greater than every epoch the predecessor ever had. The
  // successor records into the same tid table: its record of the same
  // (var, kind) replaces the predecessor's, and the exact-epoch match
  // means neither epoch ever resolves to the other's stack.
  history::AccessHistory h;
  const std::uint64_t var = 0xaaaa00;

  ThreadState pred(1);
  pred.inc();  // 1@2
  pred.inc();  // 1@3
  const Epoch pred_epoch = pred.epoch();
  h.record(var, pred_epoch, history::AccessKind::kWrite, stack_of({0xAAAA}));

  ThreadState succ(1, pred.V);  // reused slot: continues at 1@4
  const Epoch succ_epoch = succ.epoch();
  ASSERT_FALSE(succ_epoch == pred_epoch);
  ASSERT_LT(pred_epoch.clock(), succ_epoch.clock());

  history::Entry e;
  CallStack cs;
  ASSERT_TRUE(h.find(var, pred_epoch, history::AccessKind::kWrite, &e));
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0xAAAA}));
  EXPECT_FALSE(h.find(var, succ_epoch, history::AccessKind::kWrite, &e));

  h.record(var, succ_epoch, history::AccessKind::kWrite, stack_of({0xBBBB}));
  // The predecessor's record is gone, not re-attributed to the successor.
  EXPECT_FALSE(h.find(var, pred_epoch, history::AccessKind::kWrite, &e));
  ASSERT_TRUE(h.find(var, succ_epoch, history::AccessKind::kWrite, &e));
  ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
  EXPECT_EQ(cs, stack_of({0xBBBB}));
}

TEST(AccessHistory, ResetRangeDropsCoveredVarsOnly) {
  history::AccessHistory h;
  const std::uint64_t inside = 0x10008;
  const std::uint64_t outside = 0x20000;
  h.record(inside, Epoch::make(1, 2), history::AccessKind::kWrite,
           stack_of({0x1}));
  h.record(outside, Epoch::make(1, 3), history::AccessKind::kWrite,
           stack_of({0x2}));

  h.reset_range(0x10000, 0x100);

  history::Entry e;
  EXPECT_FALSE(
      h.find(inside, Epoch::make(1, 2), history::AccessKind::kWrite, &e));
  EXPECT_TRUE(
      h.find(outside, Epoch::make(1, 3), history::AccessKind::kWrite, &e));
}

TEST(AccessHistory, ResetRangeClearsEveryThreadsSlots) {
  // Records under tids 1 and 2, reset from a third thread. Two range
  // sizes: one the reset probes word by word, one large enough that it
  // scans each table instead.
  for (const std::size_t size : {std::size_t{0x100}, std::size_t{0x40000}}) {
    history::AccessHistory h;
    const std::uint64_t base = 0x1000000;
    const std::uint64_t in1 = base + 0x10;
    const std::uint64_t in2 = base + size - 8;
    const std::uint64_t below = base - 8;
    const std::uint64_t above = base + size;
    const Epoch e1 = Epoch::make(1, 5);
    const Epoch e2 = Epoch::make(2, 7);
    h.record(in1, e1, history::AccessKind::kWrite, stack_of({0x11}));
    h.record(in2, e2, history::AccessKind::kRead, stack_of({0x22}));
    h.record(below, e1, history::AccessKind::kRead, stack_of({0x33}));
    h.record(above, e2, history::AccessKind::kWrite, stack_of({0x44}));

    std::thread resetter([&] { h.reset_range(base, size); });
    resetter.join();

    history::Entry e;
    EXPECT_FALSE(h.find(in1, e1, history::AccessKind::kWrite, &e)) << size;
    EXPECT_FALSE(h.find(in2, e2, history::AccessKind::kRead, &e)) << size;
    ASSERT_TRUE(h.find(below, e1, history::AccessKind::kRead, &e)) << size;
    CallStack cs;
    ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
    EXPECT_EQ(cs, stack_of({0x33}));
    ASSERT_TRUE(h.find(above, e2, history::AccessKind::kWrite, &e)) << size;
    ASSERT_TRUE(h.stack_of(e.stack_id, &cs));
    EXPECT_EQ(cs, stack_of({0x44}));
  }
}

/// The stack a ConcurrentRecordResetFind writer records for (tid, var
/// index, clock, kind): distinct for neighbouring clocks, so a find that
/// paired one record's epoch with another's stack shows.
CallStack stress_stack(Tid t, std::size_t var_index, Clock c,
                       history::AccessKind k) {
  return stack_of({0x100000 + t, 0x200000 + var_index,
                   0x300000 + (c % 64) * 2 + static_cast<unsigned>(k)});
}

TEST(AccessHistory, ConcurrentRecordResetFind) {
  // Writers on distinct tids record every variable at every clock, one
  // thread keeps resetting the lower half of the range, one keeps
  // finding. Every successful find must return exactly the stack recorded
  // for that (var, epoch, kind).
  constexpr int kWriters = 3;
  constexpr std::size_t kVars = 64;
  constexpr Clock kClocks = 400;
  const std::uint64_t base = 0x7000000;
  history::AccessHistory h;
  std::atomic<Clock> published[kWriters + 1] = {};
  std::atomic<int> writers_left{kWriters};

  std::vector<std::thread> threads;
  for (Tid t = 1; t <= kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (Clock c = 1; c <= kClocks; ++c) {
        for (std::size_t i = 0; i < kVars; ++i) {
          for (auto k : {history::AccessKind::kRead,
                         history::AccessKind::kWrite}) {
            h.record(base + 8 * i, Epoch::make(t, c), k,
                     stress_stack(t, i, c, k));
          }
        }
        published[t].store(c, std::memory_order_release);
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load(std::memory_order_acquire) > 0) {
      h.reset_range(base, 8 * kVars / 2);
    }
  });

  std::uint64_t hits = 0;
  std::uint64_t wrong = 0;
  std::uint64_t probe = 0;
  while (writers_left.load(std::memory_order_acquire) > 0) {
    ++probe;
    const Tid t = static_cast<Tid>(1 + probe % kWriters);
    const std::size_t i = (probe / kWriters) % kVars;
    const auto k = (probe & 64) != 0 ? history::AccessKind::kWrite
                                     : history::AccessKind::kRead;
    const Clock c = published[t].load(std::memory_order_acquire);
    if (c == 0) continue;
    for (const Clock q : {c, c + 1}) {
      if (q > kClocks) continue;
      history::Entry e;
      if (!h.find(base + 8 * i, Epoch::make(t, q), k, &e)) continue;
      CallStack cs;
      ++hits;
      if (e.epoch != Epoch::make(t, q) || e.kind != k ||
          !h.stack_of(e.stack_id, &cs) || !(cs == stress_stack(t, i, q, k))) {
        ++wrong;
      }
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(hits, 0u);
}

TEST(AccessHistory, EnvDefaultOnExplicitOff) {
  unsetenv("VFT_HISTORY");
  EXPECT_TRUE(history::enabled_from_env());
  setenv("VFT_HISTORY", "off", 1);
  EXPECT_FALSE(history::enabled_from_env());
  setenv("VFT_HISTORY", "0", 1);
  EXPECT_FALSE(history::enabled_from_env());
  setenv("VFT_HISTORY", "1", 1);
  EXPECT_TRUE(history::enabled_from_env());
  unsetenv("VFT_HISTORY");
}

// ---------------------------------------------------------------------------
// Satellite: capture_event_stack falls back to the shadow call stack when
// the frame-pointer walk has nothing to start from (prior-side capture
// with no armed boundary).

struct TlsGuard {
  ~TlsGuard() {
    vft_tl_event_ctx = vft_event_ctx_s{};
    vft_tl_shadow_stack = vft_shadow_stack_s{};
  }
};

TEST(CaptureEventStack, EmptyWalkFallsBackToShadowStack) {
  TlsGuard guard;
  vft_tl_event_ctx = vft_event_ctx_s{};  // no boundary armed
  vft_tl_shadow_stack.depth = 3;
  vft_tl_shadow_stack.pc[0] = reinterpret_cast<const void*>(0x11000);  // outer
  vft_tl_shadow_stack.pc[1] = reinterpret_cast<const void*>(0x12000);
  vft_tl_shadow_stack.pc[2] = reinterpret_cast<const void*>(0x13000);  // inner

  const CallStack cs = capture_event_stack();
  // Innermost first, like the frame-pointer walk's output.
  EXPECT_EQ(cs, stack_of({0x13000, 0x12000, 0x11000}));
}

TEST(CaptureEventStack, ShadowFallbackSkipsNearNullFrames) {
  TlsGuard guard;
  vft_tl_event_ctx = vft_event_ctx_s{};
  vft_tl_shadow_stack.depth = 2;
  vft_tl_shadow_stack.pc[0] = reinterpret_cast<const void*>(0x11000);
  vft_tl_shadow_stack.pc[1] = reinterpret_cast<const void*>(0x10);  // bogus

  const CallStack cs = capture_event_stack();
  EXPECT_EQ(cs, stack_of({0x11000}));
}

// ---------------------------------------------------------------------------
// Detector-level: a race report carries the prior access's recorded stack.

struct HistoryGuard {
  explicit HistoryGuard(history::AccessHistory* h) { history::install(h); }
  ~HistoryGuard() { history::install(nullptr); }
};

TEST(DetectorPrior, WriteWriteRaceCarriesPriorStack) {
  TlsGuard tls;
  HistoryGuard installed(new history::AccessHistory());
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123450;

  // T1's write goes through [Write Exclusive] (slow path) and records its
  // armed stack into T1's table.
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x5000);
  vft_tl_event_ctx.fp = nullptr;
  ASSERT_TRUE(det.write(t1, x));

  // T0's unordered write races; the report must look up T1's entry.
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x6000);
  vft_tl_event_ctx.fp = nullptr;
  EXPECT_FALSE(det.write(t0, x));

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.kind, RaceKind::kWriteWrite);
  EXPECT_EQ(ctxs[0].first.stack, stack_of({0x6000}));
  EXPECT_EQ(ctxs[0].first.prior_stack, stack_of({0x5000}));
  ASSERT_EQ(ctxs[0].prior_frames.size(), 1u);
  EXPECT_EQ(ctxs[0].prior_frames[0].pc, 0x5000u);
}

TEST(DetectorPrior, WriteReadRaceLooksUpPriorWrite) {
  TlsGuard tls;
  HistoryGuard installed(new history::AccessHistory());
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123458;

  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x7000);
  vft_tl_event_ctx.fp = nullptr;
  ASSERT_TRUE(det.write(t1, x));

  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0x8000);
  vft_tl_event_ctx.fp = nullptr;
  EXPECT_FALSE(det.read(t0, x));  // [Write-Read Race]

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.kind, RaceKind::kWriteRead);
  EXPECT_EQ(ctxs[0].first.prior_stack, stack_of({0x7000}));
}

TEST(DetectorPrior, CollidingRecordDegradesToBareEpoch) {
  // Two variables whose write records map to the same slot of a thread's
  // table. T1 writes both in one epoch, so the second record replaces
  // the first; a race on the first must report an empty prior stack,
  // never the second variable's.
  TlsGuard tls;
  HistoryGuard installed(new history::AccessHistory());
  RaceCollector races;
  VftV2 det(&races);

  VftV2::VarState a;
  VftV2::VarState b;
  a.id = 0x400000;
  const std::size_t slot =
      history::AccessHistory::slot_index(a.id, history::AccessKind::kWrite);
  for (std::uint64_t v = a.id + 8; b.id == 0; v += 8) {
    if (history::AccessHistory::slot_index(v, history::AccessKind::kWrite) ==
        slot) {
      b.id = v;
    }
  }

  ThreadState t1(1);
  ThreadState t0(0);
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0xA000);
  vft_tl_event_ctx.fp = nullptr;
  ASSERT_TRUE(det.write(t1, a));
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0xB000);
  ASSERT_TRUE(det.write(t1, b));

  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(0xC000);
  EXPECT_FALSE(det.write(t0, a));

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.var, a.id);
  EXPECT_EQ(ctxs[0].first.prior, t1.epoch());
  EXPECT_TRUE(ctxs[0].first.prior_stack.empty());
  EXPECT_TRUE(ctxs[0].prior_frames.empty());
}

TEST(DetectorPrior, HistoryOffDegradesToEmptyPriorStack) {
  TlsGuard tls;
  // No history installed: reports must look exactly like pre-history ones.
  RaceCollector races;
  VftV2 det(&races);

  ThreadState t1(1);
  ThreadState t0(0);
  VftV2::VarState x;
  x.id = 0x123460;

  ASSERT_TRUE(det.write(t1, x));
  EXPECT_FALSE(det.write(t0, x));

  const auto ctxs = races.contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_TRUE(ctxs[0].first.prior_stack.empty());
  EXPECT_TRUE(ctxs[0].prior_frames.empty());
}

// ---------------------------------------------------------------------------
// Rule-counter parity: recording history must never perturb the Table 1
// rule distribution, for any detector in the family.

template <class D>
std::unique_ptr<D> make_detector(RaceCollector* races, RuleStats* stats) {
  return std::make_unique<D>(races, stats);
}
template <>
std::unique_ptr<FtMutex> make_detector<FtMutex>(RaceCollector* races,
                                                RuleStats* stats) {
  return std::make_unique<FtMutex>(races, stats, RuleSet::kVerifiedFT);
}
template <>
std::unique_ptr<FtCas> make_detector<FtCas>(RaceCollector* races,
                                            RuleStats* stats) {
  return std::make_unique<FtCas>(races, stats, RuleSet::kVerifiedFT);
}

/// Drive one detector through a mix that exercises same-epoch hits,
/// exclusive transitions, read sharing, and two races; return every rule
/// counter.
template <class D>
std::vector<std::uint64_t> rule_counts(bool with_history) {
  TlsGuard tls;
  history::install(with_history ? new history::AccessHistory() : nullptr);
  RaceCollector races;
  RuleStats stats;
  auto det = make_detector<D>(&races, &stats);

  ThreadState t0(0), t1(1), t2(2);
  typename D::VarState x;
  x.id = 0x77000;

  det->write(t0, x);
  det->write(t0, x);  // same epoch
  det->read(t0, x);
  det->read(t0, x);  // same epoch
  t1.join(t0.V);
  t0.inc();
  det->read(t1, x);  // ordered: share / shared
  det->read(t2, x);  // write-read race (t2 unordered with t0's write)
  t2.join(t0.V);
  t2.join(t1.V);
  det->write(t2, x);  // may race with t1's read depending on ordering above
  det->write(t2, x);  // same epoch

  history::install(nullptr);

  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < RuleStats::kN; ++i) {
    out.push_back(stats.count(static_cast<Rule>(i)));
  }
  return out;
}

template <class D>
void expect_parity(const char* name) {
  EXPECT_EQ(rule_counts<D>(false), rule_counts<D>(true)) << name;
}

TEST(RuleParity, HistoryOnOffIdenticalAcrossDetectors) {
  expect_parity<VftV1>("vft-v1");
  expect_parity<VftV15>("vft-v1.5");
  expect_parity<VftV2>("vft-v2");
  expect_parity<FtMutex>("ft-mutex");
  expect_parity<FtCas>("ft-cas");
  expect_parity<Djit>("djit");
}

}  // namespace
}  // namespace vft
