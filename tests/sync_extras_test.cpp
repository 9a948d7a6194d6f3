// Section 7 synchronization extras: reader-writer locks, reentrant
// mutexes, and once-initialization - each checked for the happens-before
// edges it must create (no false alarms) and the ones it must NOT create
// (real races still caught).
#include <gtest/gtest.h>

#include "runtime/sync_extras.h"
#include "vft/vft_v2.h"

namespace vft::rt {
namespace {

TEST(SharedMutex, WriterThenReadersNoFalseAlarm) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  SharedMutex<VftV2> rw(R);
  parallel_for_threads(R, 4, [&](std::uint32_t w) {
    if (w == 0) {
      rw.lock();
      data.store(42);
      rw.unlock();
    } else {
      for (int i = 0; i < 50; ++i) {
        SharedGuard<VftV2> g(rw);
        (void)data.load();
      }
    }
  });
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(SharedMutex, ReadersThenWriterNoFalseAlarm) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 7);
  SharedMutex<VftV2> rw(R);
  // Phase 1: concurrent readers.
  parallel_for_threads(R, 3, [&](std::uint32_t) {
    SharedGuard<VftV2> g(rw);
    (void)data.load();
  });
  // Phase 2: a writer that has only the rwlock ordering to rely on.
  Thread<VftV2> writer(R, [&] {
    rw.lock();
    data.store(8);  // ordered after all reads via r_vc
    rw.unlock();
  });
  writer.join();
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(SharedMutex, ReadLockDoesNotOrderReadersAgainstEachOther) {
  // Two readers also *write* a variable while holding only read locks:
  // that is a real race and must be reported (read-locks don't exclude).
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  SharedMutex<VftV2> rw(R);
  parallel_for_threads(R, 2, [&](std::uint32_t w) {
    SharedGuard<VftV2> g(rw);
    data.store(static_cast<int>(w));  // bug: write under read lock
  });
  EXPECT_GE(rc.count(), 1u);
}

TEST(SharedMutex, WriterChainsAcrossAlternation) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  SharedMutex<VftV2> rw(R);
  parallel_for_threads(R, 4, [&](std::uint32_t w) {
    for (int i = 0; i < 40; ++i) {
      if ((i + w) % 4 == 0) {
        rw.lock();
        data.store(data.load() + 1);
        rw.unlock();
      } else {
        SharedGuard<VftV2> g(rw);
        (void)data.load();
      }
    }
  });
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(RecursiveMutex, NestedAcquiresAreOneEvent) {
  RaceCollector rc;
  RuleStats stats;
  Runtime<VftV2> R{VftV2(&rc, &stats)};
  Runtime<VftV2>::MainScope scope(R);
  RecursiveMutex<VftV2> m(R);
  m.lock();
  m.lock();
  m.lock();
  EXPECT_EQ(m.depth(), 3);
  m.unlock();
  m.unlock();
  m.unlock();
  EXPECT_EQ(stats.count(Rule::kAcquire), 1u);  // outermost only
  EXPECT_EQ(stats.count(Rule::kRelease), 1u);
}

TEST(RecursiveMutex, StillOrdersCriticalSections) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  RecursiveMutex<VftV2> m(R);
  parallel_for_threads(R, 4, [&](std::uint32_t) {
    for (int i = 0; i < 30; ++i) {
      m.lock();
      m.lock();  // reentrant inner section
      data.store(data.load() + 1);
      m.unlock();
      m.unlock();
    }
  });
  EXPECT_EQ(data.load(), 120);
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

// The Section 7 sync extras bypass the detector's handlers and count
// their own rules: each operation bumps its counter exactly once.
TEST(SyncExtrasRules, VolatileAndBarrierBumpTheirRulesOnce) {
  RaceCollector rc;
  RuleStats stats;
  Runtime<VftV2> R{VftV2(&rc, &stats)};
  Runtime<VftV2>::MainScope scope(R);
  Volatile<int, VftV2> flag(R, 0);
  Barrier<VftV2> barrier(R, 1);
  (void)flag.load();
  EXPECT_EQ(stats.count(Rule::kVolRead), 1u);
  flag.store(1);
  EXPECT_EQ(stats.count(Rule::kVolWrite), 1u);
  barrier.arrive_and_wait();
  EXPECT_EQ(stats.count(Rule::kBarrier), 1u);
  EXPECT_EQ(stats.count(Rule::kVolRead), 1u);
  EXPECT_EQ(stats.count(Rule::kVolWrite), 1u);
}

TEST(Once, InitializerHappensBeforeEveryUse) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  auto table = std::make_unique<Array<int, VftV2>>(R, 8, 0);
  Once<int, VftV2> once(R);
  parallel_for_threads(R, 4, [&](std::uint32_t) {
    for (int i = 0; i < 20; ++i) {
      const int marker = once.get([&] {
        for (std::size_t k = 0; k < table->size(); ++k) {
          table->store(k, 11);  // the "static initializer" writes
        }
        return 11;
      });
      EXPECT_EQ(marker, 11);
      for (std::size_t k = 0; k < table->size(); ++k) {
        EXPECT_EQ(table->load(k), 11);  // ordered after the initializer
      }
    }
  });
  EXPECT_TRUE(once.initialized());
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Once, RunsInitializerExactlyOnce) {
  Runtime<VftV2> R{VftV2{}};
  Runtime<VftV2>::MainScope scope(R);
  Once<int, VftV2> once(R);
  std::atomic<int> runs{0};
  parallel_for_threads(R, 4, [&](std::uint32_t) {
    for (int i = 0; i < 10; ++i) {
      once.get([&] { return runs.fetch_add(1) + 100; });
    }
  });
  EXPECT_EQ(runs.load(), 1);
}

}  // namespace
}  // namespace vft::rt
