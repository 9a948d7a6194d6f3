// The __tsan_atomic* clock layer (vft/atomics.h + the DetectorBase
// atomic handlers) against its contracts:
//
//   differential  every atomic operation kind the detectors see (load,
//                 store, rmw = the pre/post halves every exchange/
//                 fetch_*/compare_exchange collapses to, fence) crossed
//                 with every memory order, mirrored step-by-step into the
//                 Spec oracle's on_atomic_* rules across all six
//                 detectors, with the thread and release clocks compared
//                 after every step and race verdicts compared on the
//                 gated data accesses - including the relaxed-no-edge
//                 rows and the C++ fence-synchronization pairings;
//   abi           the vft_atomic_* entries produce bit-identical rule
//                 counters with the inline fast path armed and retracted,
//                 atomic events are never sampled out, and the
//                 VFT_ATOMICS mode knob (precise / sc / off) gates the
//                 sync edge end to end through the session dispatch, and
//                 a free hint drops a freed location's release clock.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "abi/vft_abi.h"
#include "runtime/session.h"
#include "vft/atomics.h"
#include "vft/djit.h"
#include "vft/ft_cas.h"
#include "vft/ft_mutex.h"
#include "vft/spec.h"
#include "vft/stats.h"
#include "vft/vft_v1.h"
#include "vft/vft_v15.h"
#include "vft/vft_v2.h"

namespace vft {
namespace {

constexpr VarId kX = 1;
constexpr VolId kA = 100;

template <typename D>
D make_det(RaceCollector* rc, RuleStats* st) {
  if constexpr (std::is_constructible_v<D, RaceCollector*, RuleStats*,
                                        RuleSet>) {
    return D(rc, st, RuleSet::kVerifiedFT);
  } else {
    return D(rc, st);
  }
}

bool vc_eq(const VectorClock& a, const VectorClock& b) {
  return a.leq(b) && b.leq(a);
}

/// One mirrored machine: each step drives the detector handler and the
/// matching Spec rule, then cross-checks the clock state both sides
/// expose (the owner's vector clock and the location's release clock).
/// Plain data accesses compare the Spec halt against the detector's
/// report stream; after a race the rig is done (the Spec stops).
template <typename D>
struct Rig {
  RaceCollector races;
  RuleStats stats;
  D det;
  typename D::VarState x;
  atomics::AtomicState a;
  std::array<atomics::FenceTls, 3> fences;
  ThreadState t0{0}, t1{1}, t2{2};
  Spec spec;

  Rig() : det(make_det<D>(&races, &stats)) {
    x.id = kX;
    det.write(t0, x);
    spec.on_write(0, kX);
    det.fork(t0, t1);
    spec.on_fork(0, 1);
    det.fork(t0, t2);
    spec.on_fork(0, 2);
  }

  ThreadState& ts(Tid t) { return t == 0 ? t0 : (t == 1 ? t1 : t2); }

  void check(Tid t) {
    EXPECT_TRUE(vc_eq(ts(t).V, spec.thread_vc(t)))
        << "thread clock diverged from Spec for t" << t;
    EXPECT_TRUE(vc_eq(a.sync_V, spec.atomic_vc(kA)))
        << "release clock diverged from Spec";
  }

  void store(Tid t, int mo) {
    det.atomic_store(ts(t), a, fences[t], mo);
    spec.on_atomic_store(t, kA, mo);
    check(t);
  }
  void load(Tid t, int mo) {
    det.atomic_load(ts(t), a, fences[t], mo);
    spec.on_atomic_load(t, kA, mo);
    check(t);
  }
  void rmw(Tid t, int mo) {
    det.atomic_rmw_pre(ts(t), a, fences[t], mo);
    det.atomic_rmw_post(ts(t), a, fences[t], mo);
    spec.on_atomic_rmw(t, kA, mo);
    check(t);
  }
  void fence(Tid t, int mo) {
    det.atomic_fence(ts(t), fences[t], mo);
    spec.on_atomic_fence(t, mo);
    check(t);
  }

  /// Plain data access on x; both sides must agree on the race verdict.
  testing::AssertionResult data_op(Tid t, bool is_write) {
    const std::size_t before = races.count();
    if (is_write) {
      det.write(ts(t), x);
    } else {
      det.read(ts(t), x);
    }
    const Spec::StepResult r =
        is_write ? spec.on_write(t, kX) : spec.on_read(t, kX);
    const std::size_t delta = races.count() - before;
    if (r.error != (delta > 0)) {
      return testing::AssertionFailure()
             << "spec error=" << r.error << " but detector reported " << delta
             << " race report(s)";
    }
    return testing::AssertionSuccess();
  }
  testing::AssertionResult write(Tid t) { return data_op(t, true); }
  testing::AssertionResult read(Tid t) { return data_op(t, false); }
};

std::string mo_label(int mo) {
  static const char* kNames[] = {"relaxed", "consume", "acquire",
                                 "release", "acq_rel", "seq_cst"};
  return kNames[mo];
}

/// Message-passing matrix: writer publishes x behind a store (or rmw)
/// with order ms, reader consumes behind a load (or rmw) with order ml,
/// then touches x. The pair orders the read iff the store half is
/// release-class AND the load half is acquire-class; everything else -
/// notably every relaxed row TSan-on-x86's SC execution would hide -
/// must produce exactly the write-read race the Spec halts on.
template <typename D>
void run_mp_matrix(bool via_rmw) {
  for (int ms = atomics::kMoRelaxed; ms <= atomics::kMoSeqCst; ++ms) {
    for (int ml = atomics::kMoRelaxed; ml <= atomics::kMoSeqCst; ++ml) {
      SCOPED_TRACE(std::string(D::kName) + (via_rmw ? " rmw " : " store/load ") +
                   mo_label(ms) + " -> " + mo_label(ml));
      Rig<D> r;
      ASSERT_TRUE(r.write(1));
      if (via_rmw) {
        r.rmw(1, ms);
      } else {
        r.store(1, ms);
      }
      if (via_rmw) {
        r.rmw(2, ml);
      } else {
        r.load(2, ml);
      }
      const bool ordered =
          atomics::mo_is_release(ms) && atomics::mo_is_acquire(ml);
      const std::size_t before = r.races.count();
      EXPECT_TRUE(r.read(2));
      EXPECT_EQ(r.races.count() - before, ordered ? 0u : 1u);
      if (!ordered && r.races.count() == 1) {
        const RaceReport rep = *r.races.first();
        EXPECT_EQ(rep.kind, RaceKind::kWriteRead);
        EXPECT_EQ(rep.var, kX);
        EXPECT_EQ(rep.current_tid, 2u);
      }
    }
  }
}

template <typename D>
void run_fence_pairings() {
  {  // Release fence + relaxed store pairs with an acquire load.
    SCOPED_TRACE(std::string(D::kName) + " fence-MP release side");
    Rig<D> r;
    ASSERT_TRUE(r.write(1));
    r.fence(1, atomics::kMoRelease);
    r.store(1, atomics::kMoRelaxed);
    r.load(2, atomics::kMoAcquire);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 0u);
  }
  {  // Relaxed load + acquire fence pairs with a release store.
    SCOPED_TRACE(std::string(D::kName) + " fence-MP acquire side");
    Rig<D> r;
    ASSERT_TRUE(r.write(1));
    r.store(1, atomics::kMoRelease);
    r.load(2, atomics::kMoRelaxed);
    r.fence(2, atomics::kMoAcquire);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 0u);
  }
  {  // Both halves through fences around fully relaxed accesses.
    SCOPED_TRACE(std::string(D::kName) + " fence-MP both sides");
    Rig<D> r;
    ASSERT_TRUE(r.write(1));
    r.fence(1, atomics::kMoSeqCst);
    r.store(1, atomics::kMoRelaxed);
    r.load(2, atomics::kMoRelaxed);
    r.fence(2, atomics::kMoSeqCst);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 0u);
  }
  {  // A relaxed fence is not a release fence: the edge must not form.
    SCOPED_TRACE(std::string(D::kName) + " relaxed fence orders nothing");
    Rig<D> r;
    ASSERT_TRUE(r.write(1));
    r.fence(1, atomics::kMoRelaxed);
    r.store(1, atomics::kMoRelaxed);
    r.load(2, atomics::kMoAcquire);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 1u);
  }
  {  // Missing acquire fence: the relaxed load alone forms no edge.
    SCOPED_TRACE(std::string(D::kName) + " missing acquire fence");
    Rig<D> r;
    ASSERT_TRUE(r.write(1));
    r.store(1, atomics::kMoRelease);
    r.load(2, atomics::kMoRelaxed);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 1u);
  }
  {  // The release fence must start a new epoch: operations after the
     // snapshot must stay unordered with its consumers (st.inc).
    SCOPED_TRACE(std::string(D::kName) + " post-fence write stays unordered");
    Rig<D> r;
    r.fence(1, atomics::kMoRelease);
    ASSERT_TRUE(r.write(1));  // after the snapshot
    r.store(1, atomics::kMoRelaxed);
    r.load(2, atomics::kMoAcquire);
    EXPECT_TRUE(r.read(2));
    EXPECT_EQ(r.races.count(), 1u);
  }
}

template <typename D>
void run_counters() {
  Rig<D> r;
  r.store(1, atomics::kMoRelease);
  r.store(1, atomics::kMoRelaxed);
  r.load(2, atomics::kMoAcquire);
  r.load(2, atomics::kMoRelaxed);
  r.rmw(1, atomics::kMoAcqRel);
  r.rmw(1, atomics::kMoRelaxed);
  r.fence(2, atomics::kMoSeqCst);
  r.fence(2, atomics::kMoRelaxed);
  EXPECT_EQ(r.stats.count(Rule::kAtomicStore), 2u);
  EXPECT_EQ(r.stats.count(Rule::kAtomicLoad), 2u);
  EXPECT_EQ(r.stats.count(Rule::kAtomicRmw), 2u);
  EXPECT_EQ(r.stats.count(Rule::kAtomicFence), 2u);
  EXPECT_EQ(r.stats.count(Rule::kAtomicRelaxed), 4u);
  // Atomics are sync events: the data-access totals must not move.
  EXPECT_EQ(r.stats.count(Rule::kAtomicLoad) + r.stats.count(Rule::kAtomicStore),
            4u);
}

template <typename D>
void run_all_differential() {
  run_mp_matrix<D>(/*via_rmw=*/false);
  run_mp_matrix<D>(/*via_rmw=*/true);
  run_fence_pairings<D>();
  run_counters<D>();
}

TEST(AtomicsDifferential, VftV1) { run_all_differential<VftV1>(); }
TEST(AtomicsDifferential, VftV15) { run_all_differential<VftV15>(); }
TEST(AtomicsDifferential, VftV2) { run_all_differential<VftV2>(); }
TEST(AtomicsDifferential, FtMutex) { run_all_differential<FtMutex>(); }
TEST(AtomicsDifferential, FtCas) { run_all_differential<FtCas>(); }
TEST(AtomicsDifferential, Djit) { run_all_differential<Djit>(); }

// ---------------------------------------------------------------------------
// ABI level: the vft_atomic_* entries through the process-global Session.
// ---------------------------------------------------------------------------

using rt::ambient::Session;

constexpr const char* kDetectors[] = {"v1",       "v1.5",   "v2",
                                      "ft-mutex", "ft-cas", "djit"};

constexpr Rule kAtomicRules[] = {Rule::kAtomicLoad, Rule::kAtomicStore,
                                 Rule::kAtomicRmw, Rule::kAtomicFence,
                                 Rule::kAtomicRelaxed};

void configure(const char* detector, bool inline_on, const char* sampling) {
  if (inline_on) {
    unsetenv("VFT_FASTPATH");
  } else {
    setenv("VFT_FASTPATH", "off", 1);
  }
  if (sampling != nullptr) {
    setenv("VFT_SAMPLING", sampling, 1);
  } else {
    unsetenv("VFT_SAMPLING");
  }
  unsetenv("VFT_BUDGET");
  ASSERT_TRUE(Session::instance().configure(detector));
  Session::instance().reset();
  Session::instance().backend();
  Session::instance().rule_stats().reset();
}

/// Leave no environment behind for later binaries.
struct EnvGuard {
  ~EnvGuard() {
    unsetenv("VFT_FASTPATH");
    unsetenv("VFT_SAMPLING");
    unsetenv("VFT_BUDGET");
    unsetenv("VFT_ATOMICS");
  }
} env_guard;

alignas(64) long g_data[16];

/// Deterministic race-free workload over every entry and order, plus a
/// forked child consuming a release/acquire handoff.
void atomic_workload() {
  vft_attach();
  for (int mo = 0; mo <= 5; ++mo) {
    vft_atomic_store(&g_data[0], mo);
    vft_atomic_load(&g_data[0], mo);
    vft_atomic_rmw_pre(&g_data[1], mo);
    vft_atomic_rmw_post(&g_data[1], mo);
    vft_atomic_fence(mo);
  }
  vft_write8(&g_data[2]);
  vft_read8(&g_data[2]);
  const std::uint64_t tok = vft_thread_create();
  std::thread child([tok] {
    vft_thread_begin(tok);
    vft_atomic_load(&g_data[0], atomics::kMoAcquire);
    vft_read8(&g_data[2]);  // ordered by the fork edge
    vft_atomic_store(&g_data[3], atomics::kMoRelease);
    vft_detach();
  });
  child.join();
  vft_thread_join(tok);
  vft_atomic_load(&g_data[3], atomics::kMoAcquire);
  vft_detach();
}

std::array<std::uint64_t, RuleStats::kN> snapshot() {
  std::array<std::uint64_t, RuleStats::kN> out{};
  RuleStats& s = Session::instance().rule_stats();
  for (std::size_t i = 0; i < RuleStats::kN; ++i) {
    out[i] = s.count(static_cast<Rule>(i));
  }
  return out;
}

TEST(AtomicsAbi, BitIdenticalRuleCountersInlineVsOutOfLine) {
  for (const char* det : kDetectors) {
    SCOPED_TRACE(det);
    configure(det, /*inline_on=*/true, nullptr);
    atomic_workload();
    const auto with_inline = snapshot();
    configure(det, /*inline_on=*/false, nullptr);
    atomic_workload();
    const auto without_inline = snapshot();
    for (std::size_t i = 0; i < RuleStats::kN; ++i) {
      EXPECT_EQ(with_inline[i], without_inline[i])
          << rule_name(static_cast<Rule>(i));
    }
    EXPECT_EQ(vft_race_count(), 0u);
  }
}

TEST(AtomicsAbi, SamplingNeverGatesAtomicEvents) {
  // A drop-policy rate that skips nearly every plain access must not
  // skip a single atomic event: a dropped sync edge would manufacture
  // false races, so atomics run ungated (like mutex events).
  configure("v2", /*inline_on=*/true, nullptr);
  atomic_workload();
  const auto unsampled = snapshot();
  configure("v2", /*inline_on=*/true, "rate=0.01 policy=drop adaptive=0");
  atomic_workload();
  const auto sampled = snapshot();
  for (const Rule rule : kAtomicRules) {
    EXPECT_EQ(unsampled[static_cast<std::size_t>(rule)],
              sampled[static_cast<std::size_t>(rule)])
        << rule_name(rule);
  }
  EXPECT_EQ(vft_race_count(), 0u);
}

/// One message-passing handoff through real threads and the ABI: child
/// writes data then publishes flag; parent (unordered with the child
/// after the fork edge) consumes flag then reads data. Returns the
/// session's race count for the run.
std::uint64_t mp_races(const char* mode, int store_mo, int load_mo) {
  if (mode != nullptr) {
    setenv("VFT_ATOMICS", mode, 1);
  } else {
    unsetenv("VFT_ATOMICS");
  }
  configure("v2", /*inline_on=*/true, nullptr);
  static long flag;
  static long data;
  vft_attach();
  const std::uint64_t tok = vft_thread_create();
  std::thread child([tok, store_mo] {
    vft_thread_begin(tok);
    vft_write8(&data);
    vft_atomic_store(&flag, store_mo);
    vft_detach();
  });
  child.join();  // real edge: publication complete, but no vft_thread_join
  vft_atomic_load(&flag, load_mo);
  vft_read8(&data);
  vft_detach();
  unsetenv("VFT_ATOMICS");
  return vft_race_count();
}

/// Thread A writes data, release-stores flag and (optionally) frees
/// flag's address; B then acquire-loads flag and reads data while A is
/// still live. Returns the session's race count for the run.
std::uint64_t freed_flag_races(bool free_hint) {
  configure("v2", /*inline_on=*/true, nullptr);
  static long flag;
  static long data;
  std::atomic<int> stage{0};
  // Both threads attach before either ends, so their tid slots are live at
  // once: a retired slot's successor would continue A's clock and be
  // ordered after it regardless of the atomics.
  std::thread a([&] {
    vft_attach();
    stage.fetch_add(1, std::memory_order_acq_rel);
    vft_write8(&data);
    vft_atomic_store(&flag, atomics::kMoRelease);
    if (free_hint) vft_free_hint(&flag, sizeof(flag));
    stage.fetch_add(1, std::memory_order_acq_rel);
    while (stage.load(std::memory_order_acquire) < 4) {
      std::this_thread::yield();
    }
    vft_detach();
  });
  std::thread b([&] {
    vft_attach();
    stage.fetch_add(1, std::memory_order_acq_rel);
    while (stage.load(std::memory_order_acquire) < 3) {
      std::this_thread::yield();
    }
    vft_atomic_load(&flag, atomics::kMoAcquire);
    vft_read8(&data);
    stage.fetch_add(1, std::memory_order_acq_rel);
    vft_detach();
  });
  a.join();
  b.join();
  return vft_race_count();
}

TEST(AtomicsAbi, FreeHintDropsAtomicState) {
  // The release/acquire pair orders the data handoff...
  EXPECT_EQ(freed_flag_races(/*free_hint=*/false), 0u);
  // ...until the flag's memory is freed: the recycled address starts from
  // a bottom release clock, so the acquire joins nothing and the data
  // read races A's write.
  EXPECT_EQ(freed_flag_races(/*free_hint=*/true), 1u);
}

TEST(AtomicsAbi, ModeKnobGatesTheSyncEdge) {
  // precise (default): declared orders decide the edge.
  EXPECT_EQ(mp_races(nullptr, atomics::kMoRelease, atomics::kMoAcquire), 0u);
  EXPECT_EQ(mp_races(nullptr, atomics::kMoRelaxed, atomics::kMoAcquire), 1u);
  EXPECT_EQ(mp_races("precise", atomics::kMoRelaxed, atomics::kMoRelaxed), 1u);
  // sc: every order upgraded to seq_cst - the TSan-on-x86 view that
  // hides relaxed races.
  EXPECT_EQ(mp_races("sc", atomics::kMoRelaxed, atomics::kMoRelaxed), 0u);
  // off: atomics invisible - even a correct release/acquire pair
  // contributes nothing (the PR-5 interposer-only behavior).
  EXPECT_EQ(mp_races("off", atomics::kMoRelease, atomics::kMoAcquire), 1u);
}

}  // namespace
}  // namespace vft
