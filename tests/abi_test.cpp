// The C ABI (src/abi/vft_abi.h) end to end against the process-global
// session: implicit attach, the explicit create/begin/join/detach token
// protocol, graceful tid-space exhaustion, free-hint shadow/lock
// resetting (also concurrent with the session's first access), the
// event-context clear on every slow-path exit, launch-time detector
// selection, and report dumping.
//
// Thread-lifecycle invariants under test (ALGORITHM.md s12): a thread's
// slot retires exactly once - at its join if joinable, at its end if
// detached or implicitly attached - and exit-without-join leaves the
// registry consistent instead of aborting.
//
// Two shapes of "concurrent" appear below. Races need threads whose
// *slots* are simultaneously live (a retired slot's successor continues
// its predecessor's clock, so back-to-back implicit threads are ordered
// by design - see ReuseOrdersSequentialImplicitThreads); the spin
// barrier keeps both racers attached until both accesses happened. The
// test variables are only ever *named* to the ABI, never physically
// accessed concurrently, so the tests themselves are data-race-free.
//
// Tests share one process-global Session, so each begins with reset().
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abi/vft_abi.h"
#include "runtime/session.h"

namespace {

using vft::Epoch;
using vft::rt::ambient::Session;

void fresh_session(const char* detector = "v2") {
  Session::instance().configure(detector);
  Session::instance().reset();
}

vft::rt::Registry& registry() {
  return Session::instance().runtime().registry();
}

/// Two implicitly-attached threads run `body(step)` while both slots are
/// live: each signals after its body and spins until the other did too,
/// only then detaches.
template <typename Fn>
void run_concurrent_pair(Fn body) {
  std::atomic<int> done{0};
  auto racer = [&](int who) {
    vft_attach();
    body(who);
    done.fetch_add(1, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    vft_detach();
  };
  std::thread a(racer, 0), b(racer, 1);
  a.join();
  b.join();
}

TEST(Abi, ImplicitAttachAndWriteWriteRace) {
  fresh_session();
  long x = 0;
  run_concurrent_pair([&](int) { vft_write8(&x); });
  EXPECT_GE(vft_race_count(), 1u);
  // Both implicit threads ended: their slots retired, nothing live.
  EXPECT_EQ(registry().live_count(), 0u);
}

TEST(Abi, AttachIsIdempotentAndDetachIsAlwaysSafe) {
  fresh_session();
  EXPECT_EQ(vft_attach(), 1);
  EXPECT_EQ(vft_attach(), 1);
  EXPECT_EQ(registry().live_count(), 1u);
  vft_detach();
  EXPECT_EQ(registry().live_count(), 0u);
  vft_detach();  // never-attached / already-detached: no-op, no abort
  EXPECT_EQ(registry().live_count(), 0u);
}

TEST(Abi, MutexProtocolOrdersCriticalSections) {
  fresh_session();
  long counter = 0;
  // A real mutex provides the physical exclusion; the ABI events follow
  // the interposer discipline around it (lock event after the acquire,
  // unlock event before the release), keyed by the mutex's address.
  std::mutex real_mu;
  run_concurrent_pair([&](int) {
    for (int i = 0; i < 50; ++i) {
      real_mu.lock();
      vft_mutex_lock(&real_mu);
      vft_read8(&counter);
      vft_write8(&counter);
      vft_mutex_unlock(&real_mu);
      real_mu.unlock();
    }
  });
  EXPECT_EQ(vft_race_count(), 0u);

  // The identical shape on *different* locks must race: only the edges
  // through a common lock order the sections.
  long mine[2] = {0, 0};
  run_concurrent_pair([&](int who) {
    vft_mutex_lock(&mine[who]);
    vft_write8(&counter);
    vft_mutex_unlock(&mine[who]);
  });
  EXPECT_GE(vft_race_count(), 1u);
}

TEST(Abi, ReuseOrdersSequentialImplicitThreads) {
  fresh_session();
  long x = 0;
  // Back-to-back (never simultaneously live) implicit threads: the
  // second reuses the first's retired slot and continues its clock, so
  // their accesses are ordered - the documented slot-reuse precision
  // tradeoff, which keeps tid demand bounded by the live population.
  std::thread([&] {
    vft_attach();
    vft_write8(&x);
    vft_detach();
  }).join();
  std::thread([&] {
    vft_attach();
    vft_write8(&x);
    vft_detach();
  }).join();
  EXPECT_EQ(vft_race_count(), 0u);
  EXPECT_EQ(registry().slots_in_use(), 1u);
}

TEST(Abi, ForkJoinTokenProtocolCreatesBothEdges) {
  fresh_session();
  long x = 0;
  vft_attach();
  vft_write8(&x);  // parent write before fork

  const uint64_t token = vft_thread_create();
  ASSERT_NE(token, 0u);
  std::thread child([&, token] {
    vft_thread_begin(token);
    vft_write8(&x);  // ordered after the parent's by the fork edge
    vft_detach();    // end-of-thread: joinable, so no retirement yet
  });
  child.join();
  vft_thread_join(token);  // after the native join, per the s4 ordering
  vft_write8(&x);          // ordered after the child's by the join edge

  EXPECT_EQ(vft_race_count(), 0u);
  EXPECT_EQ(registry().live_count(), 1u);  // only the main thread
  vft_detach();
}

TEST(Abi, UnjoinedExitLeavesSlotLiveUntilTheLateJoin) {
  fresh_session();
  vft_attach();
  const uint64_t token = vft_thread_create();
  ASSERT_NE(token, 0u);
  std::thread child([token] {
    vft_thread_begin(token);
    vft_detach();
  });
  child.join();
  // The child ended but nobody joined: its slot must stay allocated
  // (consistent, exactly like a leaked joinable pthread) - not aborted,
  // not double-freed.
  EXPECT_EQ(registry().live_count(), 2u);
  vft_thread_join(token);  // the (late) join retires it - exactly once
  EXPECT_EQ(registry().live_count(), 1u);
  vft_thread_join(token);  // token already consumed: no-op
  EXPECT_EQ(registry().live_count(), 1u);
  vft_detach();
}

TEST(Abi, DetachedThreadRetiresAtItsEndExactlyOnce) {
  fresh_session();
  vft_attach();
  const uint64_t token = vft_thread_create();
  ASSERT_NE(token, 0u);
  vft_thread_detach(token);  // pthread_detach before the thread ends
  std::thread child([token] {
    vft_thread_begin(token);
    vft_detach();  // detached: the end event retires the slot
  });
  child.join();
  EXPECT_EQ(registry().live_count(), 1u);
  vft_thread_join(token);  // misuse after detach: no-op, no abort
  EXPECT_EQ(registry().live_count(), 1u);

  // Detach *after* the thread ended takes the other branch of
  // retire_if_due and must also retire exactly once.
  const uint64_t token2 = vft_thread_create();
  ASSERT_NE(token2, 0u);
  std::thread child2([token2] {
    vft_thread_begin(token2);
    vft_detach();
  });
  child2.join();
  EXPECT_EQ(registry().live_count(), 2u);
  vft_thread_detach(token2);
  EXPECT_EQ(registry().live_count(), 1u);
  vft_detach();
}

TEST(Abi, ExhaustionDegradesToUnmonitoredNotAbort) {
  fresh_session();
  vft_attach();  // main: 1 live slot
  std::vector<uint64_t> tokens;
  for (std::uint32_t i = 0; i < Epoch::kMaxTid; ++i) {
    const uint64_t token = vft_thread_create();
    ASSERT_NE(token, 0u) << "slot " << i;
    tokens.push_back(token);
  }
  EXPECT_EQ(registry().live_count(), Epoch::kMaxTid + 1u);
  // Every tid is live: the next create degrades to the unmonitored
  // token, and the whole protocol accepts it as a no-op.
  const uint64_t overflow = vft_thread_create();
  EXPECT_EQ(overflow, 0u);
  long x = 0;
  std::thread unmonitored([overflow, &x] {
    vft_thread_begin(overflow);
    vft_write8(&x);  // invisible, but must not crash or race-report
    vft_detach();
  });
  unmonitored.join();
  vft_thread_join(overflow);
  EXPECT_EQ(vft_race_count(), 0u);

  for (const uint64_t token : tokens) vft_thread_join(token);
  EXPECT_EQ(registry().live_count(), 1u);
  // With slots free again, creation resumes normally.
  const uint64_t again = vft_thread_create();
  EXPECT_NE(again, 0u);
  vft_thread_join(again);
  vft_detach();
}

TEST(Abi, FreeHintResetsShadowWordsAndLockStates) {
  fresh_session();
  vft_attach();
  auto* buf = new long[8];
  for (int i = 0; i < 8; ++i) vft_write8(&buf[i]);
  long mu_stand_in = 0;
  vft_mutex_lock(&mu_stand_in);
  vft_mutex_unlock(&mu_stand_in);

  auto& backend = Session::instance().backend();
  EXPECT_GE(backend.shadow_words(), 8u);
  EXPECT_EQ(backend.locks_seen(), 1u);

  vft_free_hint(buf, 8 * sizeof(long));
  vft_free_hint(&mu_stand_in, sizeof(mu_stand_in));
  delete[] buf;

  EXPECT_EQ(backend.locks_seen(), 0u);
  // Every session access runs against the packed space, so the free
  // hint's resets land there.
  const auto packed =
      Session::instance().runtime().packed_space().stats();
  EXPECT_GE(packed.words_reset, 8u);
  vft_detach();
}

TEST(Abi, FreeHintPreventsStaleStateOnRecycledAddresses) {
  fresh_session();
  long x = 0;
  std::atomic<int> stage{0};
  // A writes x, the address is "freed" while both threads stay live,
  // then B writes the recycled address: no race (B starts from bottom
  // shadow state). Without the free hint this exact shape is the
  // ImplicitAttachAndWriteWriteRace test.
  std::thread a([&] {
    vft_attach();
    vft_write8(&x);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 3) {
      std::this_thread::yield();
    }
    vft_detach();
  });
  std::thread b([&] {
    vft_attach();
    while (stage.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    vft_write8(&x);
    stage.store(3, std::memory_order_release);
    vft_detach();
  });
  while (stage.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }
  vft_free_hint(&x, sizeof(x));
  stage.store(2, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(vft_race_count(), 0u);
}

TEST(Abi, FreeHintConcurrentWithFirstAccess) {
  // The backend is published but nothing has accessed memory yet. One
  // thread's first access and another's free hint then run unordered:
  // both touch the packed shadow space, so it must already exist - built
  // with the backend, never on an access - or the free hint's look at it
  // races the first access creating it (a TSan build flags that race).
  fresh_session();
  Session::instance().backend();
  long x = 0;
  long freed = 0;
  std::atomic<int> ready{0};
  auto start_together = [&] {
    ready.fetch_add(1, std::memory_order_relaxed);
    while (ready.load(std::memory_order_relaxed) < 2) {
      std::this_thread::yield();
    }
  };
  std::thread a([&] {
    start_together();
    vft_write8(&x);
    vft_detach();
  });
  std::thread b([&] {
    start_together();
    vft_free_hint(&freed, sizeof(freed));
  });
  a.join();
  b.join();
  EXPECT_EQ(vft_race_count(), 0u);
  EXPECT_GE(Session::instance().backend().shadow_words(), 1u);
}

TEST(Abi, ZeroSizeRangeClearsEventContext) {
  // Every slow-path exit consumes the context its wrapper armed, the
  // empty-range exit included: a stale pc would otherwise describe the
  // next slow access that does not re-arm it (a direct vft_* call or an
  // ambient annotation).
  fresh_session();
  vft_attach();
  long x = 0;
  for (void (*range)(const void*, size_t) : {&vft_range_read,
                                             &vft_range_write}) {
    vft_tl_event_ctx.pc = &x;
    vft_tl_event_ctx.fp = __builtin_frame_address(0);
    range(&x, 0);
    EXPECT_EQ(vft_tl_event_ctx.pc, nullptr);
  }
  vft_detach();
}

TEST(Abi, DetectorSelectionReachesTheFactory) {
  fresh_session("ft-cas");
  EXPECT_STREQ(vft_detector_name(), "FT-CAS");
  // The erased path works under a non-default detector...
  long x = 0;
  run_concurrent_pair([&](int) { vft_write8(&x); });
  EXPECT_GE(vft_race_count(), 1u);

  // ...and the name is per-launch, not per-build.
  fresh_session("djit");
  EXPECT_STREQ(vft_detector_name(), "DJIT+ (full VC)");

  EXPECT_FALSE(Session::instance().configure("fasttrack3000"));
  fresh_session("v2");
  EXPECT_STREQ(vft_detector_name(), "VerifiedFT-v2");
}

TEST(AbiDeathTest, TypedRuntimeUnderOtherDetectorDiesActionably) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Session::instance().configure("djit");
        Session::instance().reset();
        (void)Session::instance().runtime();
      },
      "launched with detector.*VFT_DETECTOR=v2");
  fresh_session("v2");
}

TEST(Abi, ReportWriteTextAndJson) {
  fresh_session();
  long x = 0;
  run_concurrent_pair([&](int) { vft_write8(&x); });
  ASSERT_GE(vft_race_count(), 1u);

  char text_path[64], json_path[64];
  std::snprintf(text_path, sizeof(text_path), "/tmp/vft-abi-%d.txt",
                static_cast<int>(::getpid()));
  std::snprintf(json_path, sizeof(json_path), "/tmp/vft-abi-%d.json",
                static_cast<int>(::getpid()));
  ASSERT_EQ(vft_report_write(text_path, 0), 0);
  ASSERT_EQ(vft_report_write(json_path, 1), 0);

  auto slurp = [](const char* p) {
    std::ifstream in(p);
    std::ostringstream all;
    all << in.rdbuf();
    return all.str();
  };
  const std::string text = slurp(text_path);
  EXPECT_NE(text.find("VerifiedFT-v2"), std::string::npos);
  EXPECT_NE(text.find("summary: races="), std::string::npos);
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"detector\": \"VerifiedFT-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\""), std::string::npos);
  std::remove(text_path);
  std::remove(json_path);

  EXPECT_EQ(vft_report_write("/nonexistent-dir/report.txt", 0), -1);
}

}  // namespace
