// Runtime substrate: registry lifecycle (allocation, thread_local scoping,
// tid reuse with clock continuation) and the instrumented wrappers.
#include <gtest/gtest.h>

#include "runtime/instrument.h"

namespace vft::rt {
namespace {

TEST(Registry, AllocatesDenseTids) {
  Registry reg;
  EXPECT_EQ(reg.create().t, 0u);
  EXPECT_EQ(reg.create().t, 1u);
  EXPECT_EQ(reg.create().t, 2u);
  EXPECT_EQ(reg.slots_in_use(), 3u);
}

TEST(Registry, ThreadScopeBindsAndRestores) {
  Registry reg;
  ThreadState& a = reg.create();
  ThreadState& b = reg.create();
  EXPECT_EQ(Registry::current(), nullptr);
  {
    Registry::ThreadScope outer(a);
    EXPECT_EQ(Registry::current(), &a);
    {
      Registry::ThreadScope inner(b);
      EXPECT_EQ(Registry::current(), &b);
    }
    EXPECT_EQ(Registry::current(), &a);
  }
  EXPECT_EQ(Registry::current(), nullptr);
}

TEST(Registry, RetiredSlotIsReusedWithContinuedClock) {
  Registry reg;
  reg.create();  // main, tid 0
  ThreadState& child = reg.create();
  EXPECT_EQ(child.t, 1u);
  child.inc();
  child.inc();
  const Epoch last = child.epoch();
  reg.retire(child);
  ThreadState& successor = reg.create();
  EXPECT_EQ(successor.t, 1u);                    // same slot
  EXPECT_EQ(reg.slots_in_use(), 2u);             // no new slot
  EXPECT_EQ(successor.epoch(), last.inc());      // clock continues
  EXPECT_TRUE(leq(last, successor.V.get(1)));    // predecessor ordered before
}

TEST(Runtime, VarLoadStoreRoundTrip) {
  Runtime<VftV2> R{VftV2{}};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> v(R, 41);
  EXPECT_EQ(v.load(), 41);
  v.store(42);
  EXPECT_EQ(v.load(), 42);
}

TEST(Runtime, ArrayElementsAreIndependentlyShadowed) {
  Runtime<VftV2> R{VftV2{}};
  Runtime<VftV2>::MainScope scope(R);
  Array<double, VftV2> a(R, 8, 1.5);
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.load(3), 1.5);
  a.store(3, 2.5);
  EXPECT_EQ(a.load(3), 2.5);
  EXPECT_EQ(a.load(4), 1.5);
  EXPECT_NE(a.shadow(3).id, a.shadow(4).id);
}

TEST(Runtime, ForkJoinCreatesHappensBefore) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> v(R, 0);
  v.store(1);  // main writes before fork
  Thread<VftV2> t(R, [&] {
    EXPECT_EQ(v.load(), 1);  // child reads: ordered by fork
    v.store(2);              // child writes
  });
  t.join();
  EXPECT_EQ(v.load(), 2);  // main reads after join: ordered
  v.store(3);              // and writes
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Runtime, MutexOrdersCriticalSections) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> v(R, 0);
  Mutex<VftV2> m(R);
  parallel_for_threads(R, 4, [&](std::uint32_t) {
    for (int i = 0; i < 100; ++i) {
      Guard<VftV2> g(m);
      v.store(v.load() + 1);
    }
  });
  EXPECT_EQ(v.load(), 400);
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Runtime, VolatileCreatesHappensBefore) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  Volatile<int, VftV2> flag(R, 0);
  Thread<VftV2> producer(R, [&] {
    data.store(99);
    flag.store(1);
  });
  Thread<VftV2> consumer(R, [&] {
    while (flag.load() != 1) {
    }
    EXPECT_EQ(data.load(), 99);  // ordered via the volatile
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Runtime, BarrierCreatesAllToAllOrdering) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  constexpr std::uint32_t kN = 4;
  Array<int, VftV2> cells(R, kN, 0);
  Barrier<VftV2> barrier(R, kN);
  parallel_for_threads(R, kN, [&](std::uint32_t w) {
    cells.store(w, static_cast<int>(w) + 1);  // own cell
    barrier.arrive_and_wait();
    int sum = 0;  // read everyone's cell: ordered by the barrier
    for (std::uint32_t i = 0; i < kN; ++i) sum += cells.load(i);
    EXPECT_EQ(sum, 10);
    barrier.arrive_and_wait();
    cells.store((w + 1) % kN, 0);  // write someone else's: still ordered
  });
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Runtime, CondVarWaitPreservesMonitorOrdering) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> data(R, 0);
  Var<int, VftV2> ready(R, 0);
  Mutex<VftV2> m(R);
  CondVar<VftV2> cv(R);
  Thread<VftV2> consumer(R, [&] {
    m.lock();
    cv.wait(m, [&] { return ready.load() == 1; });
    EXPECT_EQ(data.load(), 7);
    m.unlock();
  });
  Thread<VftV2> producer(R, [&] {
    m.lock();
    data.store(7);
    ready.store(1);
    m.unlock();
    cv.notify_all();
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(rc.empty()) << rc.first()->str();
}

TEST(Runtime, DetectsRealRaceThroughWrappers) {
  RaceCollector rc;
  Runtime<VftV2> R{VftV2(&rc)};
  Runtime<VftV2>::MainScope scope(R);
  Var<int, VftV2> v(R, 0);
  parallel_for_threads(R, 2, [&](std::uint32_t w) {
    v.store(static_cast<int>(w));  // unsynchronized conflicting writes
  });
  EXPECT_GE(rc.count(), 1u);
}

}  // namespace
}  // namespace vft::rt
