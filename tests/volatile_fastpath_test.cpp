// The rt::Volatile same-epoch read fast path ([Volatile Same Epoch]):
// rt::Volatile is one AtomicState driven by the detector's two joining
// edges, so this is DetectorBase::atomic_join's fast-epoch skip reached
// through the runtime, checked over the whole detector family:
//
//   - deterministic multi-threaded schedules, driven by the schedule
//     explorer's replay format (sched::ScriptedOrder - real
//     happens-before the analysis cannot see, so it adds no analysis
//     edges), mirrored step-for-step into the Figure 2 Spec oracle and
//     asserted for race-report parity;
//   - a concurrent stress test: volatile-ordered publication must stay
//     race-free (no false positives from the skipped join) and the same
//     pattern without the volatile ordering must still race (the fast
//     path must not manufacture happens-before).
//
// Each scripted step spans the writer's entire Volatile::store() (or the
// reader's whole load sequence), so a reader's fast-epoch check always
// sees the matching publication - that makes the schedules exactly
// replayable in the sequential oracle, and printable/replayable with the
// same "0,1,0,1" notation `vft sched --schedule` speaks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "kernels/all.h"
#include "runtime/instrument.h"
#include "sched/script.h"
#include "vft/spec.h"

namespace vft {
namespace {

template <typename D>
class VolatileFastPath : public ::testing::Test {};

using AllDetectors =
    ::testing::Types<VftV1, VftV15, VftV2, FtMutex, FtCas, Djit>;
TYPED_TEST_SUITE(VolatileFastPath, AllDetectors);

/// Spin until the raw flag reaches `v` (acquire). Not an analysis event.
/// Only the stress tests still use raw flags; the deterministic
/// schedules below are ScriptedOrder scripts.
void await(const std::atomic<int>& flag, int v) {
  while (flag.load(std::memory_order_acquire) < v) {
    std::this_thread::yield();
  }
}

// --- Deterministic schedules with Spec parity -------------------------------

TYPED_TEST(VolatileFastPath, PublicationParityWithSpec) {
  // t1 writes x, publishes via volatile v; t2 reads v (fast path after
  // the first load), then reads x. Race-free in the oracle and in every
  // detector. Runtime tids: main=0, t1=1, t2=2.
  constexpr int kLoads = 64;  // repeated loads: all but the 1st are fast
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);
  sched::ScriptedOrder order({0, 1});

  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] {  // the step spans the full store()
      x.store(1);
      v.store(1);
    });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    order.step(1, [&] {
      for (int i = 0; i < kLoads; ++i) EXPECT_EQ(v.load(), 1);
      EXPECT_EQ(x.load(), 1);
    });
  });
  t1.join();
  t2.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  oracle.on_write(1, /*x=*/1);
  oracle.on_vol_write(1, /*v=*/1);
  bool error = false;
  for (int i = 0; i < kLoads; ++i) error |= oracle.on_vol_read(2, 1).error;
  error |= oracle.on_read(2, 1).error;
  EXPECT_FALSE(error);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
}

TYPED_TEST(VolatileFastPath, MissingOrderingParityWithSpec) {
  // Same schedule but t2 never reads the volatile: the write/read pair
  // is unordered for the analysis (the raw handshake is invisible), so
  // the oracle errors and every detector must report.
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);
  sched::ScriptedOrder order({0, 1});

  rt::Thread<TypeParam> t1(R, [&] {
    order.step(0, [&] {
      x.store(1);
      v.store(1);
    });
  });
  rt::Thread<TypeParam> t2(R, [&] {
    order.step(1, [&] {
      EXPECT_EQ(x.load(), 1);  // no v.load(): races with t1's write
    });
  });
  t1.join();
  t2.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  oracle.on_write(1, 1);
  oracle.on_vol_write(1, 1);
  const bool error = oracle.on_read(2, 1).error;
  EXPECT_TRUE(error);
  EXPECT_GE(rc.count(), 1u);
}

TYPED_TEST(VolatileFastPath, RepeatedStoresReArmFastPath) {
  // Ping-pong: the writer re-publishes (advancing the volatile's epoch)
  // and the reader must pick up each new publication - a stale fast
  // epoch would leak the previous x write as a race. Race-free.
  constexpr int kRounds = 32;
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);
  rt::Volatile<int, TypeParam> back(R, 0);  // reader -> writer ordering
  sched::Schedule plan;
  for (int r = 0; r < kRounds; ++r) {
    plan.push_back(0);  // writer publishes round r
    plan.push_back(1);  // reader consumes round r
  }
  sched::ScriptedOrder order(plan);

  rt::Thread<TypeParam> writer(R, [&] {
    for (int r = 0; r < kRounds; ++r) {
      order.step(0, [&] {
        (void)back.load();  // the reader's clock arrives via `back`
        x.store(r);
        v.store(r + 1);
      });
    }
  });
  rt::Thread<TypeParam> reader(R, [&] {
    for (int r = 0; r < kRounds; ++r) {
      order.step(1, [&] {
        EXPECT_EQ(v.load(), r + 1);
        EXPECT_EQ(x.load(), r);
        back.store(r + 1);
      });
    }
  });
  writer.join();
  reader.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  bool error = false;
  for (int r = 0; r < kRounds; ++r) {
    error |= oracle.on_vol_read(1, /*back=*/2).error;
    error |= oracle.on_write(1, 1).error;
    error |= oracle.on_vol_write(1, /*v=*/1).error;
    error |= oracle.on_vol_read(2, 1).error;
    error |= oracle.on_read(2, 1).error;
    error |= oracle.on_vol_write(2, 2).error;
  }
  EXPECT_FALSE(error);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
}

TYPED_TEST(VolatileFastPath, SecondWriterDisablesFastPathSoundly) {
  // Two writers alternate stores to the volatile (each store's clock no
  // longer dominates, so fast_epoch_ falls back to SHARED); a reader
  // then relies on the volatile for ordering against *both* x writers.
  // Race-free; exercises the dominated=false branch.
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Var<int, TypeParam> y(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);
  sched::ScriptedOrder order({0, 1, 2});

  rt::Thread<TypeParam> w1(R, [&] {
    order.step(0, [&] {
      x.store(1);
      v.store(1);
    });
  });
  rt::Thread<TypeParam> w2(R, [&] {
    order.step(1, [&] {
      y.store(1);
      v.store(2);  // does not dominate w1's clock contribution -> SHARED
    });
  });
  rt::Thread<TypeParam> reader(R, [&] {
    order.step(2, [&] {
      EXPECT_EQ(v.load(), 2);  // slow path: joins both writers' clocks
      EXPECT_EQ(x.load(), 1);
      EXPECT_EQ(y.load(), 1);
    });
  });
  w1.join();
  w2.join();
  reader.join();

  Spec oracle;
  oracle.on_fork(0, 1);
  oracle.on_fork(0, 2);
  oracle.on_fork(0, 3);
  bool error = false;
  error |= oracle.on_write(1, /*x=*/1).error;
  error |= oracle.on_vol_write(1, 1).error;
  error |= oracle.on_write(2, /*y=*/2).error;
  error |= oracle.on_vol_write(2, 1).error;
  error |= oracle.on_vol_read(3, 1).error;
  error |= oracle.on_read(3, 1).error;
  error |= oracle.on_read(3, 2).error;
  EXPECT_FALSE(error);
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
}

// --- Concurrent stress ------------------------------------------------------

TYPED_TEST(VolatileFastPath, ConcurrentReadersNoFalsePositives) {
  // One publisher, many readers hammering the volatile concurrently:
  // every reader that observes the publication reads the payload. The
  // fast path runs under real concurrency here; any unsoundness in the
  // skipped join surfaces as a (false) race report.
  constexpr int kLoads = 2000;
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);

  rt::parallel_for_threads(R, 4, [&](std::uint32_t w) {
    if (w == 0) {
      x.store(7);
      v.store(1);
    } else {
      int seen = 0;
      for (int i = 0; i < kLoads; ++i) seen = v.load();
      if (seen == 1) {
        EXPECT_EQ(x.load(), 7);
      }
    }
  });
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
}

TYPED_TEST(VolatileFastPath, ConcurrentWritersAndReadersNoFalsePositives) {
  // Two volatile writers + two readers; each reader orders a read of the
  // matching payload through the volatile. Exercises fast-path arming,
  // SHARED fall-back, and concurrent slow-path joins all interleaving.
  constexpr int kRounds = 500;
  RaceCollector rc;
  rt::Runtime<TypeParam> R{TypeParam(&rc)};
  typename rt::Runtime<TypeParam>::MainScope scope(R);
  rt::Var<int, TypeParam> x(R, 0);
  rt::Volatile<int, TypeParam> v(R, 0);
  std::atomic<int> token{0};  // raw alternation so x writes don't self-race

  rt::parallel_for_threads(R, 4, [&](std::uint32_t w) {
    if (w < 2) {
      for (int r = 0; r < kRounds; ++r) {
        await(token, 2 * r + (w == 0 ? 0 : 1));
        (void)v.load();  // absorb the other writer's clock (the raw token
                         // is invisible to the analysis)
        x.store(r);      // exclusive by the token, ordered via v
        v.store(r + 1);
        token.fetch_add(1, std::memory_order_acq_rel);
      }
    } else {
      for (int r = 0; r < kRounds; ++r) {
        if (v.load() != 0) break;  // at least one publication absorbed
      }
      (void)v.load();
    }
  });
  EXPECT_EQ(rc.count(), 0u) << rc.first()->str();
}

}  // namespace
}  // namespace vft
