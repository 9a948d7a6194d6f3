// The packed-cell same-epoch fast path (vft/packed_cell.h and the
// PackedShadowSpace / wrapper packed modes built on it), checked four ways:
//
//   - PackedCell unit semantics: the decision tree, the one-way
//     ESCALATING -> ESCALATED protocol, bottom-epoch first touches;
//   - randomized differential replay: identical generated traces through
//     (a) the packed fast path + detector slow path and (b) the pure
//     Figure 2 Spec oracle, across all six detectors, comparing the first
//     race position and (for epoch detectors) the final {R, W} state
//     whether it still lives in the cell or spilled into the VarState;
//   - backend parity: the same traces against real memory through
//     PackedShadowSpace must agree with the oracle;
//   - deterministic schedules scripted in the schedule explorer's replay
//     format (sched::ScriptedOrder) and concurrent stress through
//     the production wrappers (rt::Var packed mode), including forced
//     spill/promotion interleavings: simultaneous escalation must spill
//     exactly once, ordered handoffs must stay race-free (and on the fast
//     path), and unsynchronized sharing must still race.
#include "vft/packed_cell.h"

#include <gtest/gtest.h>

#include <array>

#include "runtime/adaptive_array.h"
#include "runtime/coarse_array.h"
#include "runtime/instrument.h"
#include "sched/script.h"
#include "trace/generator.h"
#include "trace/replay.h"
#include "vft/detector.h"
#include "vft/spec.h"

namespace vft {
namespace {

using trace::GeneratorConfig;
using trace::Op;
using trace::OpKind;
using trace::Trace;

// --- PackedCell unit semantics ----------------------------------------------

TEST(PackedCell, FirstTouchesRideTheFastPath) {
  // The default cell is {bottom, bottom}; clock-0 epochs are ordered
  // before every thread (clocks start at 1), so first touches advance by
  // CAS instead of escalating.
  PackedCell cell;
  ThreadState t0(0);
  EXPECT_EQ(cell.fast<false>(t0), PackedCell::Fast::kAdvanced);
  EXPECT_EQ(PackedCell::unpack_r(cell.bits()), t0.epoch());
  EXPECT_EQ(cell.fast<false>(t0), PackedCell::Fast::kSameEpoch);
  EXPECT_EQ(cell.fast<true>(t0), PackedCell::Fast::kAdvanced);
  EXPECT_EQ(cell.fast<true>(t0), PackedCell::Fast::kSameEpoch);
  EXPECT_FALSE(cell.escalated());
}

TEST(PackedCell, OrderedCrossThreadAdvancesStayInline) {
  // t1's accesses are ordered after t0's (simulated release/acquire), so
  // the exclusive rules advance the cell without any detector involvement.
  PackedCell cell;
  ThreadState t0(0), t1(1);
  ASSERT_EQ(cell.fast<true>(t0), PackedCell::Fast::kAdvanced);
  t1.join(t0.V);  // t1 now knows t0's epoch
  EXPECT_EQ(cell.fast<true>(t1), PackedCell::Fast::kAdvanced);
  EXPECT_EQ(PackedCell::unpack_w(cell.bits()), t1.epoch());
  EXPECT_EQ(cell.fast<false>(t1), PackedCell::Fast::kAdvanced);
  EXPECT_FALSE(cell.escalated());
}

TEST(PackedCell, UnorderedAccessRefusesAndEscalatesOnce) {
  PackedCell cell;
  ThreadState t0(0), t1(1);
  ASSERT_EQ(cell.fast<true>(t0), PackedCell::Fast::kAdvanced);
  // t1 never saw t0's write: the fast path must refuse both directions.
  EXPECT_EQ(cell.fast<false>(t1), PackedCell::Fast::kSlow);
  EXPECT_EQ(cell.fast<true>(t1), PackedCell::Fast::kSlow);

  auto rw = cell.begin_escalate();
  ASSERT_TRUE(rw.has_value());  // we won the escalation
  EXPECT_EQ(rw->second, t0.epoch());
  cell.finish_escalate();
  EXPECT_TRUE(cell.escalated());
  // Terminal: later escalation attempts find it done, fast paths refuse.
  EXPECT_FALSE(cell.begin_escalate().has_value());
  EXPECT_EQ(cell.fast<false>(t0), PackedCell::Fast::kSlow);
  EXPECT_EQ(cell.fast<true>(t0), PackedCell::Fast::kSlow);
}

TEST(PackedCell, EscalateCellInjectsSnapshotIntoSpillTarget) {
  PackedCell cell;
  ThreadState t0(0);
  ASSERT_EQ(cell.fast<true>(t0), PackedCell::Fast::kAdvanced);
  ASSERT_EQ(cell.fast<false>(t0), PackedCell::Fast::kAdvanced);
  VftV1::VarState vs;
  bool won = false;
  auto target = [&vs]() -> VftV1::VarState& { return vs; };
  escalate_cell(cell, target, target, &won);
  EXPECT_TRUE(won);
  EXPECT_EQ(vs.R, t0.epoch());
  EXPECT_EQ(vs.W, t0.epoch());
  // Second resolution takes the get() path.
  won = true;
  escalate_cell(cell, target, target, &won);
  EXPECT_FALSE(won);
}

// --- Randomized differential vs the Spec oracle -----------------------------

/// Trace-level shadow store with a packed cell fronting every variable's
/// (eagerly allocated) VarState - the rt::Var packed-mode shape, driven by
/// hand-managed ThreadStates so generated traces exercise the exact
/// production fast-path/spill code.
template <typename D>
class PackedStore {
 public:
  bool apply(D& d, const Op& op) {
    if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) {
      Entry& e = entry(op.target);
      auto target = [&e]() -> typename D::VarState& { return *e.vs; };
      ThreadState& st = base_.thread(op.t);
      return op.kind == OpKind::kRead
                 ? packed_access<false>(d, st, e.cell, target, target)
                 : packed_access<true>(d, st, e.cell, target, target);
    }
    return trace::apply(d, base_, op);
  }

  PackedCell& cell(VarId x) { return entry(x).cell; }
  typename D::VarState& var(VarId x) { return *entry(x).vs; }

 private:
  struct Entry {
    PackedCell cell;
    std::unique_ptr<typename D::VarState> vs;
  };

  Entry& entry(VarId x) {
    auto it = vars_.find(x);
    if (it == vars_.end()) {
      auto e = std::make_unique<Entry>();
      e->vs = std::make_unique<typename D::VarState>();
      e->vs->id = x;
      it = vars_.emplace(x, std::move(e)).first;
    }
    return *it->second;
  }

  trace::ShadowStore<D> base_;  // threads, locks, volatiles
  std::unordered_map<VarId, std::unique_ptr<Entry>> vars_;
};

/// Final-state agreement: the epoch-mode {R, W} lives either in the cell
/// (never escalated) or in the spilled VarState; both must equal the
/// oracle's. A SHARED oracle state implies the cell escalated.
template <typename D>
void expect_packed_var_matches_spec(PackedStore<D>& store, VarId x,
                                    const Spec::VarState& s) {
  PackedCell& cell = store.cell(x);
  if (!cell.escalated()) {
    ASSERT_FALSE(s.R.is_shared()) << "SHARED state requires escalation";
    EXPECT_EQ(PackedCell::unpack_r(cell.bits()), s.R);
    EXPECT_EQ(PackedCell::unpack_w(cell.bits()), s.W);
  } else if constexpr (ProbeableVarState<typename D::VarState>) {
    typename D::VarState& vs = store.var(x);
    EXPECT_EQ(probe_r(vs), s.R);
    EXPECT_EQ(probe_w(vs), s.W);
  }
}

template <typename D>
void run_packed_equivalence(RuleSet rules, bool check_state) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const double disciplined : {1.0, 0.85, 0.5}) {
      RaceCollector rc;
      RuleStats stats;
      D d(&rc, &stats);
      GeneratorConfig cfg;
      cfg.initial_threads = 3;
      cfg.max_threads = 3;
      cfg.vars = 6;
      cfg.ops = 180;
      cfg.disciplined_fraction = disciplined;
      cfg.seed = seed * 131 + static_cast<std::uint64_t>(disciplined * 10);
      const Trace t = trace::generate(cfg);

      Spec spec(rules);
      const trace::SpecReplayResult sr = trace::replay_spec(t, spec);

      PackedStore<D> store;
      std::optional<std::size_t> first_race;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (!store.apply(d, t[i]) && !first_race) first_race = i;
        // Prefix convention (Section 7 fail-over): the spec halts at its
        // first error, the implementation keeps going.
        if (sr.error_index && i == *sr.error_index) break;
      }

      ASSERT_EQ(first_race, sr.error_index)
          << D::kName << " seed " << seed << " disc " << disciplined << "\n"
          << trace::to_string(t);
      if (!sr.error_index) {
        EXPECT_TRUE(rc.empty());
        if (check_state) {
          for (const Op& op : t) {
            if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) {
              expect_packed_var_matches_spec(store, op.target,
                                             spec.var(op.target));
            }
          }
        }
      } else {
        EXPECT_GE(rc.count(), 1u);
      }
      // Accounting invariant: every access is either a fast hit or a miss.
      std::uint64_t accesses = 0;
      for (const Op& op : t) {
        if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) ++accesses;
      }
      if (!sr.error_index) {
        EXPECT_EQ(stats.count(Rule::kFastReadHit) +
                      stats.count(Rule::kFastWriteHit) +
                      stats.count(Rule::kFastMiss),
                  accesses);
        EXPECT_EQ(stats.total_accesses(), accesses);
      }
    }
  }
}

TEST(PackedDifferential, VftV1MatchesSpec) {
  run_packed_equivalence<VftV1>(RuleSet::kVerifiedFT, true);
}
TEST(PackedDifferential, VftV15MatchesSpec) {
  run_packed_equivalence<VftV15>(RuleSet::kVerifiedFT, true);
}
TEST(PackedDifferential, VftV2MatchesSpec) {
  run_packed_equivalence<VftV2>(RuleSet::kVerifiedFT, true);
}
TEST(PackedDifferential, FtMutexMatchesOriginalSpec) {
  run_packed_equivalence<FtMutex>(RuleSet::kOriginalFastTrack, true);
}
TEST(PackedDifferential, FtCasMatchesOriginalSpec) {
  run_packed_equivalence<FtCas>(RuleSet::kOriginalFastTrack, true);
}
TEST(PackedDifferential, DjitFindsSameFirstRace) {
  run_packed_equivalence<Djit>(RuleSet::kVerifiedFT, false);
}

// --- Cross-backend parity on real memory ------------------------------------

/// Replay a trace routing variable accesses through `access` (a backend
/// adapter over real addresses) and everything else through a ShadowStore.
template <typename D, typename AccessFn>
std::optional<std::size_t> replay_against_backend(
    const Trace& t, D& d, AccessFn&& access,
    std::optional<std::size_t> stop) {
  trace::ShadowStore<D> store;
  std::optional<std::size_t> first_race;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Op& op = t[i];
    bool ok = true;
    if (op.kind == OpKind::kRead || op.kind == OpKind::kWrite) {
      ok = access(d, store.thread(op.t), op);
    } else {
      trace::apply(d, store, op);
    }
    if (!ok && !first_race) first_race = i;
    if (stop && i == *stop) break;
  }
  return first_race;
}

template <typename D>
void run_backend_parity(RuleSet rules) {
  constexpr std::size_t kVars = 6;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GeneratorConfig cfg;
    cfg.initial_threads = 3;
    cfg.max_threads = 3;
    cfg.vars = kVars;
    cfg.ops = 160;
    cfg.disciplined_fraction = seed % 2 == 0 ? 0.85 : 0.6;
    cfg.seed = seed * 977;
    const Trace t = trace::generate(cfg);

    Spec spec(rules);
    const trace::SpecReplayResult sr = trace::replay_spec(t, spec);

    // One 8-byte word of real memory per variable, so word granularity
    // cannot alias distinct VarIds.
    alignas(8) std::array<std::uint64_t, kVars> mem{};

    RaceCollector rc1;
    D d1(&rc1);
    rt::PackedShadowSpace<D> packed;

    const auto fr_packed = replay_against_backend(
        t, d1,
        [&](D& d, ThreadState& st, const Op& op) {
          const void* a = &mem[op.target];
          return op.kind == OpKind::kRead
                     ? packed.template access<false>(d, st, a, sizeof(mem[0]))
                     : packed.template access<true>(d, st, a, sizeof(mem[0]));
        },
        sr.error_index);

    EXPECT_EQ(fr_packed, sr.error_index)
        << D::kName << " packed, seed " << seed << "\n" << trace::to_string(t);
  }
}

TEST(PackedBackendParity, VftV2) { run_backend_parity<VftV2>(RuleSet::kVerifiedFT); }
TEST(PackedBackendParity, VftV1) { run_backend_parity<VftV1>(RuleSet::kVerifiedFT); }
TEST(PackedBackendParity, FtCas) {
  run_backend_parity<FtCas>(RuleSet::kOriginalFastTrack);
}
TEST(PackedBackendParity, Djit) { run_backend_parity<Djit>(RuleSet::kVerifiedFT); }

// --- Deterministic spill/promotion schedules through the wrappers -----------

template <typename D>
class PackedFastPath : public ::testing::Test {};

using AllDetectors =
    ::testing::Types<VftV1, VftV15, VftV2, FtMutex, FtCas, Djit>;
TYPED_TEST_SUITE(PackedFastPath, AllDetectors);

TYPED_TEST(PackedFastPath, ReadSharePromotionSpillsWithSpecParity) {
  // main writes x; two forked readers share it. The first read advances
  // the cell inline; the second is unordered with it and must escalate
  // ([Read Share] promotion in the detector). Race-free, one spill.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
  sched::ScriptedOrder order({0, 1, 1});

  x.store(7);
  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] { EXPECT_EQ(x.load(), 7); });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    // unordered with t1's read: escalates
    order.step(1, [&] { EXPECT_EQ(x.load(), 7); });
    // post-spill: detector [Read Shared Same Epoch]
    order.step(1, [&] { EXPECT_EQ(x.load(), 7); });
  });
  t1.join();
  t2.join();

  Spec oracle;
  oracle.on_write(0, 1);
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  bool error = false;
  error |= oracle.on_read(1, 1).error;
  error |= oracle.on_read(2, 1).error;
  error |= oracle.on_read(2, 1).error;
  EXPECT_FALSE(error);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
  EXPECT_TRUE(x.cell().escalated());
  EXPECT_EQ(stats.count(Rule::kFastSpill), 1u);
}

TYPED_TEST(PackedFastPath, LockedHandoffStaysOnFastPath) {
  // Lock-ordered write handoffs keep {R, W} ordered before each accessor,
  // so the exclusive rules cover them inline: no spill, no race - and the
  // oracle agrees the schedule is race-free.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
  rt::Mutex<TypeParam> m(R);
  sched::ScriptedOrder order({0, 1});

  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] {
      rt::Guard<TypeParam> g(m);
      x.store(1);
      x.store(2);  // [Write Same Epoch] hit
    });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    order.step(1, [&] {
      rt::Guard<TypeParam> g(m);
      EXPECT_EQ(x.load(), 2);  // ordered via m: [Read Exclusive] inline
      x.store(3);              // ordered: [Write Exclusive] inline
    });
  });
  t1.join();
  t2.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  bool error = false;
  oracle.on_acquire(1, 1);
  error |= oracle.on_write(1, 1).error;
  error |= oracle.on_write(1, 1).error;
  oracle.on_release(1, 1);
  oracle.on_acquire(2, 1);
  error |= oracle.on_read(2, 1).error;
  error |= oracle.on_write(2, 1).error;
  oracle.on_release(2, 1);
  EXPECT_FALSE(error);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
  EXPECT_FALSE(x.cell().escalated());
  EXPECT_EQ(stats.count(Rule::kFastSpill), 0u);
  EXPECT_EQ(stats.count(Rule::kFastMiss), 0u);
}

TYPED_TEST(PackedFastPath, RacingWriteSpillsAndReports) {
  // t2's write is unordered with t1's: the cell refuses, spills, and the
  // detector (not the fast path) reports the race - at the same operation
  // the oracle errors on.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
  sched::ScriptedOrder order({0, 1});  // scripted: invisible to analysis

  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] { x.store(1); });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    order.step(1, [&] { x.store(2); });  // races with t1's write
  });
  t1.join();
  t2.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  bool error = false;
  error |= oracle.on_write(1, 1).error;
  error |= oracle.on_write(2, 1).error;
  EXPECT_TRUE(error);
  EXPECT_GE(rc.count(), 1u);
  EXPECT_TRUE(x.cell().escalated());
  EXPECT_EQ(stats.count(Rule::kFastSpill), 1u);
}

// --- Concurrent stress ------------------------------------------------------

TYPED_TEST(PackedFastPath, SimultaneousEscalationSpillsExactlyOnce) {
  // All workers hit one fresh cell's escalation window together; exactly
  // one may win the spill, every access must still be checked, and the
  // ordered publication must stay race-free.
  constexpr int kIters = 20;
  for (int iter = 0; iter < kIters; ++iter) {
    RaceCollector rc;
    RuleStats stats;
    rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
    typename rt::Runtime<TypeParam>::MainScope scope(R);
    rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
    x.store(5);
    rt::parallel_for_threads(R, 4, [&](std::uint32_t) {
      for (int i = 0; i < 16; ++i) EXPECT_EQ(x.load(), 5);
    });
    EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
    EXPECT_LE(stats.count(Rule::kFastSpill), 1u);
    // 4 unordered readers cannot all stay in epoch mode.
    EXPECT_TRUE(x.cell().escalated());
    EXPECT_EQ(stats.count(Rule::kFastSpill), 1u);
  }
}

TYPED_TEST(PackedFastPath, UnsynchronizedWritersStillRace) {
  // The fast path must not swallow genuine races under real concurrency:
  // two unordered writers always produce at least one report, whichever
  // interleaving the hardware picks.
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
  rt::parallel_for_threads(R, 2, [&](std::uint32_t w) {
    for (int i = 0; i < 50; ++i) x.store(static_cast<int>(w));
  });
  EXPECT_GE(rc.count(), 1u);
  EXPECT_TRUE(x.cell().escalated());
}

TYPED_TEST(PackedFastPath, LockOrderedHammerNoFalsePositives) {
  // Many threads hammer one packed variable under a lock: every handoff
  // is ordered, so any report is a fast-path unsoundness.
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0, 0, /*packed=*/true);
  rt::Mutex<TypeParam> m(R);
  rt::parallel_for_threads(R, 4, [&](std::uint32_t) {
    for (int i = 0; i < 200; ++i) {
      rt::Guard<TypeParam> g(m);
      x.store(x.load() + 1);
    }
  });
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
  EXPECT_EQ(x.raw(), 800);
}

// --- Wrapper / raw-pointer agreement on the packed space --------------------

TYPED_TEST(PackedFastPath, ArrayAndRawInstrumentationShareCells) {
  // A packed-carved rt::Array and raw-pointer access() on &data()[i]
  // must resolve to the same cells: a wrapper access followed by a raw
  // access of the same element in the same epoch is a same-epoch hit.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  auto& pspace = R.packed_space();
  rt::Array<std::uint64_t, TypeParam> a(R, pspace, 64, 3);

  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.load(i), 3u);
  const std::uint64_t misses_before = stats.count(Rule::kFastMiss);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(pspace.template access<false>(R.tool(), R.self(), &a.data()[i],
                                              sizeof(std::uint64_t)));
  }
  // Same epoch, same cells: every raw read is a fast hit.
  EXPECT_EQ(stats.count(Rule::kFastMiss), misses_before);
  EXPECT_EQ(rc.count(), 0u);
  EXPECT_EQ(pspace.spilled(), 0u);

  // Force-escalating shadow() spills with the word's address id and the
  // exact cell snapshot.
  auto& vs = a.shadow(0);
  EXPECT_EQ(vs.id, reinterpret_cast<std::uint64_t>(&a.data()[0]));
  EXPECT_EQ(pspace.spilled(), 1u);
  if constexpr (ProbeableVarState<typename TypeParam::VarState>) {
    EXPECT_EQ(probe_r(vs), R.self().epoch());
  }
  // Range accesses keep working over a mix of live and spilled cells.
  EXPECT_TRUE(pspace.template access<false>(
      R.tool(), R.self(), a.data(), a.size() * sizeof(std::uint64_t)));
  EXPECT_EQ(rc.count(), 0u);
}

// --- CoarseArray / AdaptiveArray packed modes -------------------------------

TYPED_TEST(PackedFastPath, CoarseArrayPackedKeepsGranulePartitionsQuiet) {
  // Granule-aligned thread partitions with an ordered handoff: every
  // granule's cell sees only ordered accesses, so the whole run stays on
  // the fast path with zero reports.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<TypeParam> R{TypeParam(&rc, &stats)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::CoarseArray<int, TypeParam> a(R, 128, 32, 0, /*packed=*/true);
  rt::parallel_for_threads(R, 4, [&](std::uint32_t w) {
    for (std::size_t i = w * 32; i < (w + 1) * 32; ++i) {
      a.store(i, static_cast<int>(i));
      EXPECT_EQ(a.load(i), static_cast<int>(i));
    }
  });
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
  EXPECT_EQ(stats.count(Rule::kFastSpill), 0u);
  EXPECT_GT(stats.count(Rule::kFastWriteHit), 0u);
}

TYPED_TEST(PackedFastPath, CoarseArrayPackedStillFalseAlarmsAcrossGranule) {
  // The documented coarse-shadow imprecision must survive the packed
  // front: two threads on different elements of one granule still report.
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::CoarseArray<int, TypeParam> a(R, 64, 64, 0, /*packed=*/true);
  sched::ScriptedOrder order({0, 1});
  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] { a.store(1, 1); });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    // distinct element, same granule: merged history
    order.step(1, [&] { a.store(60, 1); });
  });
  t1.join();
  t2.join();
  EXPECT_GE(rc.count(), 1u);
}

TEST(PackedAdaptiveArray, OwnerStaysInlineAndSplitSnapshotsFromCell) {
  // The owner's coarse-path accesses run against the granule cell; the
  // second thread's touch splits with the cell's exact {R, W} snapshot,
  // so an ordered handoff stays race-free and precision is per-element
  // afterwards.
  RaceCollector rc;
  RuleStats stats;
  rt::Runtime<VftV2> R{VftV2(&rc, &stats)};
  rt::Runtime<VftV2>::MainScope scope(R);
  rt::AdaptiveArray<int, VftV2> a(R, 64, 16, 0, /*packed=*/true);
  for (std::size_t i = 0; i < a.size(); ++i) a.store(i, 1);
  EXPECT_EQ(a.split_count(), 0u);
  EXPECT_GT(stats.count(Rule::kFastWriteHit), 0u);

  rt::Thread<VftV2> t1(R, [&] {
    a.store(5, 2);  // ordered via fork: splits granule 0, no report
    a.store(5, 3);
  });
  t1.join();
  EXPECT_EQ(a.split_count(), 1u);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
  EXPECT_EQ(a.raw(5), 3);
}

TEST(PackedAdaptiveArray, RacyTouchAfterSplitStillReports) {
  RaceCollector rc;
  rt::Runtime<VftV2> R{VftV2(&rc)};
  rt::Runtime<VftV2>::MainScope scope(R);
  rt::AdaptiveArray<int, VftV2> a(R, 32, 32, 0, /*packed=*/true);
  sched::ScriptedOrder order({0, 1});
  rt::Thread<VftV2> t1(R, [&] {
    // claims the granule, packed coarse path
    order.step(0, [&] { a.store(3, 1); });
  });
  rt::Thread<VftV2> t2(R, [&] {
    // unordered second thread: split, then race on elem 3
    order.step(1, [&] { a.store(3, 2); });
  });
  t1.join();
  t2.join();
  EXPECT_GE(rc.count(), 1u);
}

TEST(PackedShadowSpaceStats, CountsPagesAndSpills) {
  rt::PackedShadowSpace<VftV2> space;
  ThreadState t0(0);
  VftV2 d(nullptr);
  std::vector<std::uint64_t> mem(1024, 0);
  for (auto& w : mem) space.access<true>(d, t0, &w, sizeof(w));
  const rt::ShadowSpaceStats s = space.stats();
  EXPECT_GE(s.pages, 2u);  // 8 KiB of target words
  EXPECT_EQ(s.spilled, 0u);
  space.of(&mem[0]);  // force one spill
  EXPECT_EQ(space.stats().spilled, 1u);
  EXPECT_EQ(space.of(&mem[0]).id,
            rt::ShadowGeometry::kGranularity *
                (reinterpret_cast<std::uintptr_t>(&mem[0]) /
                 rt::ShadowGeometry::kGranularity));
}

}  // namespace
}  // namespace vft
