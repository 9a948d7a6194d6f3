// Ambient (TSan-style) instrumentation API: address-keyed events over the
// process-wide session, the annotation macros, and session reset.
//
// Tests share one process-wide session, so each starts with reset() and
// its own MainScope.
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/ambient.h"

namespace vft::rt::ambient {
namespace {

struct Account {
  long balance = 0;
  long limit = 100;
};

TEST(Ambient, QuietOnOrderedAccesses) {
  Session::instance().reset();
  MainScope main;
  Account acct;
  *VFT_AMBIENT_WRITE(&acct.balance) = 50;
  Thread t([&] {
    // Ordered after the main-thread write by the fork edge.
    EXPECT_EQ(*VFT_AMBIENT_READ(&acct.balance), 50);
    *VFT_AMBIENT_WRITE(&acct.balance) = 60;
  });
  t.join();
  EXPECT_EQ(*VFT_AMBIENT_READ(&acct.balance), 60);
  EXPECT_TRUE(races().empty());
}

TEST(Ambient, LockOrdersCriticalSections) {
  Session::instance().reset();
  MainScope main;
  Account acct;
  Lock mu;
  Thread t1([&] {
    mu.lock();
    *VFT_AMBIENT_WRITE(&acct.balance) += 1;
    mu.unlock();
  });
  Thread t2([&] {
    mu.lock();
    *VFT_AMBIENT_WRITE(&acct.balance) += 1;
    mu.unlock();
  });
  t1.join();
  t2.join();
  EXPECT_TRUE(races().empty()) << races().first()->str();
}

TEST(Ambient, ReportsRealRaceWithDistinctFields) {
  Session::instance().reset();
  MainScope main;
  Account acct;
  // The *logical* race is what the analysis flags; the physical stores go
  // through std::atomic_ref so the test itself has defined behaviour.
  Thread t1([&] {
    on_write(&acct.balance);
    std::atomic_ref<long>(acct.balance).store(1, std::memory_order_relaxed);
  });
  Thread t2([&] {
    on_write(&acct.balance);
    std::atomic_ref<long>(acct.balance).store(2, std::memory_order_relaxed);
  });
  t1.join();
  t2.join();
  EXPECT_GE(races().count(), 1u);
  // The sibling field was never touched concurrently: per-address shadow
  // keeps it clean.
  Thread t3([&] { *VFT_AMBIENT_WRITE(&acct.limit) = 7; });
  t3.join();
  const std::size_t after_limit_write = races().count();
  EXPECT_EQ(after_limit_write, races().count());
}

TEST(Ambient, MacroYieldsUsableAddress) {
  Session::instance().reset();
  MainScope main;
  int xs[3] = {1, 2, 3};
  // Macro value is the address: usable inline in expressions.
  const int sum = *VFT_AMBIENT_READ(&xs[0]) + *VFT_AMBIENT_READ(&xs[2]);
  EXPECT_EQ(sum, 4);
  *VFT_AMBIENT_WRITE(&xs[1]) = 9;
  EXPECT_EQ(xs[1], 9);
}

TEST(Ambient, ResetDropsShadowAndReports) {
  Session::instance().reset();
  {
    MainScope main;
    Account acct;
    Thread t1([&] {
      on_write(&acct.balance);
      std::atomic_ref<long>(acct.balance).store(1, std::memory_order_relaxed);
    });
    Thread t2([&] {
      on_write(&acct.balance);
      std::atomic_ref<long>(acct.balance).store(2, std::memory_order_relaxed);
    });
    t1.join();
    t2.join();
    EXPECT_GE(races().count(), 1u);
  }
  Session::instance().reset();
  EXPECT_TRUE(races().empty());
  EXPECT_EQ(runtime().packed_space().size(), 0u);
}

}  // namespace
}  // namespace vft::rt::ambient
