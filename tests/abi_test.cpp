// The C ABI (src/abi/vft_abi.h) end to end against the process-global
// session: implicit attach, the explicit create/begin/join/detach token
// protocol, a flat heap under thread churn, graceful tid-space
// exhaustion, free-hint shadow/lock resetting (also concurrent with the
// session's first access and with a page's first lock and atomic events),
// the prior stack of a race on a recycled address, the record memo's
// key (one site reached from two callers, two range events at one pc and
// fp), the event-context clear on every slow-path exit, launch-time
// detector selection,
// repeat-race counting, and report dumping.
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

#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <fstream>
#include <functional>
#include <optional>
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

/// Bytes the heap holds in use, or nullopt under a sanitizer allocator,
/// which mallinfo2 does not see.
std::optional<std::size_t> heap_in_use() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return std::nullopt;
#else
  return mallinfo2().uordblks;
#endif
}

TEST(Abi, ThreadChurnLeavesTheHeapFlat) {
  // Thousands of threads of each kind, one at a time: a thread's record
  // and its slot's displaced predecessor may outlive it only until its
  // slot's next reuse, so after a warm-up the heap must not grow with the
  // number of threads that came and went.
  constexpr int kWarmup = 200;
  constexpr int kThreads = 2000;
  fresh_session();
  vft_attach();
  long x = 0;
  const auto joined = [&x] {
    const uint64_t token = vft_thread_create();
    std::thread child([token, &x] {
      vft_thread_begin(token);
      vft_read8(&x);
      vft_detach();
    });
    child.join();
    vft_thread_join(token);
  };
  const auto detached = [&x] {
    const uint64_t token = vft_thread_create();
    vft_thread_detach(token);
    std::thread child([token, &x] {
      vft_thread_begin(token);
      vft_read8(&x);
      vft_detach();
    });
    child.join();
  };
  const auto implicit = [&x] {
    std::thread child([&x] {
      vft_read8(&x);
      vft_detach();
    });
    child.join();
  };
  const std::pair<const char*, std::function<void()>> kinds[] = {
      {"joined", joined}, {"detached", detached}, {"implicit", implicit}};
  for (const auto& [name, churn_one] : kinds) {
    for (int i = 0; i < kWarmup; ++i) churn_one();
    const std::optional<std::size_t> before = heap_in_use();
    for (int i = 0; i < kThreads; ++i) churn_one();
    const std::optional<std::size_t> after = heap_in_use();
    EXPECT_EQ(registry().live_count(), 1u) << name;
    EXPECT_EQ(registry().slots_in_use(), 2u) << name;
    if (before && after) {
      // A few bytes per thread would be allocator noise; a record or a
      // parked ThreadState per thread is tens of bytes.
      EXPECT_LT(static_cast<double>(*after) - static_cast<double>(*before),
                8.0 * kThreads)
          << name;
    }
  }
  EXPECT_EQ(vft_race_count(), 0u);
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
  // Two stand-in mutexes in one aligned 16-byte block, so on one 4 KiB
  // shadow page.
  alignas(16) long mu_stand_ins[2] = {0, 0};
  vft_mutex_lock(&mu_stand_ins[0]);
  vft_mutex_unlock(&mu_stand_ins[0]);

  auto& backend = Session::instance().backend();
  EXPECT_GE(backend.shadow_words(), 8u);
  EXPECT_EQ(backend.locks_seen(), 1u);
  vft_detach();

  // A hands `data` to B through the second lock, and the first lock's
  // memory is freed between A's release and B's acquire: the reset must
  // leave its page neighbour's release clock alone, or B's read races.
  long data = 0;
  std::atomic<int> stage{0};
  std::thread a([&] {
    vft_attach();
    vft_mutex_lock(&mu_stand_ins[1]);
    vft_write8(&data);
    vft_mutex_unlock(&mu_stand_ins[1]);
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
    vft_mutex_lock(&mu_stand_ins[1]);
    vft_read8(&data);
    vft_mutex_unlock(&mu_stand_ins[1]);
    stage.store(3, std::memory_order_release);
    vft_detach();
  });
  while (stage.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(backend.locks_seen(), 2u);
  vft_free_hint(buf, 8 * sizeof(long));
  vft_free_hint(&mu_stand_ins[0], sizeof(mu_stand_ins[0]));
  delete[] buf;
  EXPECT_EQ(backend.locks_seen(), 1u);
  stage.store(2, std::memory_order_release);
  a.join();
  b.join();
  EXPECT_EQ(vft_race_count(), 0u);

  // Every session access runs against the packed space, so the free
  // hint's resets land there.
  const auto packed =
      Session::instance().runtime().packed_space().stats();
  EXPECT_GE(packed.words_reset, 8u);
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

/// Arm the calling thread's event context at `pc`, as an interposed
/// wrapper does, so the next slow-path access captures the stack {pc}.
void arm_event_ctx(std::uintptr_t pc) {
  vft_tl_event_ctx.pc = reinterpret_cast<const void*>(pc);
  vft_tl_event_ctx.fp = nullptr;
}

TEST(Abi, PriorStackAfterFreeNamesTheRecycledAccess) {
  // A writes x, the address is freed, and A writes the recycled x again
  // in a later epoch. B's unordered write then races that second write,
  // and the report's prior side must carry its stack: the free left A's
  // older record of x in the access history, but only the exact epoch
  // the re-bottomed cell now holds can answer the lookup.
  constexpr std::uintptr_t kFirst = 0x51000;
  constexpr std::uintptr_t kSecond = 0x52000;
  constexpr std::uintptr_t kRacer = 0x53000;
  fresh_session();
  long x = 0;
  std::atomic<int> stage{0};
  std::thread a([&] {
    vft_attach();
    arm_event_ctx(kFirst);
    vft_write8(&x);
    vft_free_hint(&x, sizeof(x));
    long mine = 0;  // a lock no other thread touches: a fresh epoch
    vft_mutex_lock(&mine);
    vft_mutex_unlock(&mine);
    arm_event_ctx(kSecond);
    vft_write8(&x);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    vft_detach();
  });
  std::thread b([&] {
    vft_attach();
    while (stage.load(std::memory_order_acquire) < 1) {
      std::this_thread::yield();
    }
    arm_event_ctx(kRacer);
    vft_write8(&x);
    stage.store(2, std::memory_order_release);
    vft_detach();
  });
  a.join();
  b.join();
  const auto ctxs = Session::instance().races().contexts();
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].first.kind, vft::RaceKind::kWriteWrite);
  ASSERT_FALSE(ctxs[0].prior_frames.empty());
  EXPECT_EQ(ctxs[0].prior_frames[0].pc, kSecond);
  ASSERT_FALSE(ctxs[0].frames.empty());
  EXPECT_EQ(ctxs[0].frames[0].pc, kRacer);
}

/// The prior-side frame pcs of the context whose current stack starts at
/// `racer` (each racing access below arms its own pc, so each race is its
/// own context).
std::vector<std::uintptr_t> prior_pcs_of(std::uintptr_t racer) {
  std::vector<std::uintptr_t> pcs;
  for (const auto& c : Session::instance().races().contexts()) {
    if (c.frames.empty() || c.frames[0].pc != racer) continue;
    for (const auto& f : c.prior_frames) pcs.push_back(f.pc);
  }
  return pcs;
}

/// A races `first` and `second` through `record_both`, then B races each
/// with its own armed pc; both slots stay live until B is done.
template <typename Fn>
void race_two_records(long* first, long* second, std::uintptr_t racer_first,
                      std::uintptr_t racer_second, Fn record_both) {
  std::atomic<int> stage{0};
  std::thread a([&] {
    vft_attach();
    record_both();
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    vft_detach();
  });
  std::thread b([&] {
    vft_attach();
    while (stage.load(std::memory_order_acquire) < 1) {
      std::this_thread::yield();
    }
    arm_event_ctx(racer_first);
    vft_write8(first);
    arm_event_ctx(racer_second);
    vft_write8(second);
    stage.store(2, std::memory_order_release);
    vft_detach();
  });
  a.join();
  b.join();
}

TEST(Abi, RecordMemoSeparatesTwoCallersOfOneSite) {
  // One access site at one stack depth, reached from two callers, with
  // the entry/exit hooks -fsanitize=thread code calls around every
  // function (__tsan_func_entry/exit's bodies). The boundary is armed
  // at the same pc and fp both times; only the call serial the hooks
  // bump tells the two records apart, so each names its own caller.
  constexpr std::uintptr_t kSite = 0x61000;   // the access, in site()
  constexpr std::uintptr_t kOuter = 0x62000;  // the call of caller_*()
  constexpr std::uintptr_t kCallerA = 0x63000;
  constexpr std::uintptr_t kCallerB = 0x64000;
  fresh_session();
  long x = 0;
  long y = 0;
  auto caller = [](std::uintptr_t call_site, long* p) {
    vft_shadow_stack_enter(reinterpret_cast<const void*>(kOuter));
    vft_shadow_stack_enter(reinterpret_cast<const void*>(call_site));
    arm_event_ctx(kSite);  // __tsan_write8 in site()
    vft_write8(p);
    vft_shadow_stack_exit();  // site() returns
    vft_shadow_stack_exit();  // caller_*() returns
  };
  race_two_records(&x, &y, 0x65000, 0x66000, [&] {
    caller(kCallerA, &x);
    caller(kCallerB, &y);
  });
  EXPECT_EQ(prior_pcs_of(0x65000),
            (std::vector<std::uintptr_t>{kSite, kCallerA, kOuter}));
  EXPECT_EQ(prior_pcs_of(0x66000),
            (std::vector<std::uintptr_t>{kSite, kCallerB, kOuter}));
}

TEST(Abi, RecordMemoKeepsRangeEventsApart) {
  // Two range events at one pc and fp whose caller frames differ, with
  // no entry or exit between them: a memset from one uninstrumented
  // libc routine, itself called from two sites. The frame chain is laid
  // out on this thread's stack by hand (boundary frame -> caller frame
  // -> end). Each range event bumps the call serial at its exit, so the
  // second one walks again and each record names its own caller.
  constexpr std::uintptr_t kSite = 0x71000;
  constexpr std::uintptr_t kCallerA = 0x72000;
  constexpr std::uintptr_t kCallerB = 0x73000;
  fresh_session();
  long x[4] = {0, 0, 0, 0};
  long y[4] = {0, 0, 0, 0};
  race_two_records(&x[0], &y[0], 0x74000, 0x75000, [&] {
    std::uintptr_t chain[4] = {0, 0, 0, 0};
    chain[0] = reinterpret_cast<std::uintptr_t>(&chain[2]);
    for (const auto& [caller, range] :
         {std::pair{kCallerA, &x}, std::pair{kCallerB, &y}}) {
      chain[3] = caller;
      vft_tl_event_ctx.pc = reinterpret_cast<const void*>(kSite);
      vft_tl_event_ctx.fp = chain;
      vft_range_write(*range, sizeof(*range));
    }
  });
  EXPECT_EQ(prior_pcs_of(0x74000),
            (std::vector<std::uintptr_t>{kSite, kCallerA}));
  EXPECT_EQ(prior_pcs_of(0x75000),
            (std::vector<std::uintptr_t>{kSite, kCallerB}));
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

TEST(Abi, SyncStateCreationConcurrentWithFirstAccessAndFree) {
  // On one fresh page, three threads run unordered: A's first lock and
  // atomic events (which create the page's sync table and objects), B's
  // first data access, and C's free hint of a disjoint word. Pages, sync
  // tables and sync objects are all published by CAS, and the reset walk
  // only reads what it finds, so a TSan build stays quiet; the free must
  // leave A's lock alone.
  fresh_session();
  Session::instance().backend();
  alignas(32) long words[4] = {0, 0, 0, 0};  // 32 aligned bytes: one page
  std::atomic<int> ready{0};
  auto start_together = [&] {
    ready.fetch_add(1, std::memory_order_relaxed);
    while (ready.load(std::memory_order_relaxed) < 3) {
      std::this_thread::yield();
    }
  };
  std::thread a([&] {
    start_together();
    vft_mutex_lock(&words[0]);
    vft_atomic_store(&words[1], __ATOMIC_RELEASE);
    vft_mutex_unlock(&words[0]);
    vft_detach();
  });
  std::thread b([&] {
    start_together();
    vft_write8(&words[2]);
    vft_detach();
  });
  std::thread c([&] {
    start_together();
    vft_free_hint(&words[3], sizeof(words[3]));
  });
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(vft_race_count(), 0u);
  EXPECT_EQ(Session::instance().backend().locks_seen(), 1u);
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

TEST(Abi, RepeatedRaceCountsEveryRead) {
  fresh_session();
  long x = 0;
  constexpr std::size_t kReads = 69536;
  std::atomic<bool> written{false};
  run_concurrent_pair([&](int who) {
    if (who == 0) {
      vft_write8(&x);
      written.store(true, std::memory_order_release);
      return;
    }
    while (!written.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    long mine = 0;  // a lock no other thread touches
    for (std::size_t i = 0; i < kReads; ++i) {
      vft_read8(&x);
      // The release starts a fresh epoch, so the next read is checked
      // against the unordered write again instead of hitting same-epoch.
      vft_mutex_lock(&mine);
      vft_mutex_unlock(&mine);
    }
  });
  EXPECT_EQ(vft_race_count(), kReads);
  const vft::reportio::ReportDoc doc = Session::instance().report_doc();
  ASSERT_EQ(doc.contexts.size(), 1u);
  EXPECT_EQ(doc.contexts[0].count, kReads);
  EXPECT_EQ(Session::instance().rule_stats().count(vft::Rule::kWriteReadRace),
            kReads);
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
