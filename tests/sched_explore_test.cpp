// Systematic schedule exploration of the lock-free hot paths (the
// src/sched/ harness): exhaustive small-scope suites per scenario,
// schedule-count regression checks (pruning bugs change the counts and
// fail loudly), mutation smoke tests proving the explorer can actually
// find seeded ordering bugs, and replay/artifact round trips.
//
// This binary is compiled with VFT_SCHED (see tests/CMakeLists.txt): the
// detector headers' VFT_SCHED_POINT seams are live, and the whole binary
// (including the runtime TUs it compiles directly) agrees on the
// instrumented VarState layouts.
#include <gtest/gtest.h>

#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "sched/explore.h"
#include "sched/scenarios.h"
#include "sched/schedule.h"
#include "sched/script.h"

namespace vft::sched {
namespace {

static_assert(kEnabled, "this suite requires a VFT_SCHED build");

// Exhaustive exploration of a named scenario; dumps counts and the first
// artifacts so failures are diagnosable straight from the log and new
// baselines are copy-pasteable.
ExploreResult run_dfs(const char* name, const ExploreConfig& cfg = {}) {
  const Scenario* sc = find_scenario(name);
  EXPECT_NE(sc, nullptr) << name;
  ExploreResult r = explore_dfs(sc->make, cfg);
  std::cout << "[sched] " << name << ": schedules=" << r.schedules
            << " sleep_blocked=" << r.sleep_blocked
            << " bound_blocked=" << r.bound_blocked
            << " deadlocks=" << r.deadlocks << " livelocks=" << r.livelocks
            << " failures=" << r.failures << "\n";
  for (FailureArtifact a : r.artifacts) {
    a.scenario = name;
    std::cout << "  " << format_artifact(a) << "\n";
  }
  return r;
}

void expect_clean(const ExploreResult& r) {
  EXPECT_TRUE(r.clean()) << "failures=" << r.failures
                         << " deadlocks=" << r.deadlocks
                         << " livelocks=" << r.livelocks
                         << " capped=" << r.capped;
}

// --- format / sequencer units ---------------------------------------------

TEST(Schedule, RoundTripsThroughText) {
  const Schedule s{0, 1, 1, 0, 2};
  EXPECT_EQ(to_string(s), "0,1,1,0,2");
  EXPECT_EQ(parse_schedule("0,1,1,0,2"), std::optional<Schedule>(s));
  EXPECT_EQ(parse_schedule("0, 1 ,1"), (std::optional<Schedule>({0, 1, 1})));
  EXPECT_FALSE(parse_schedule("").has_value());
  EXPECT_FALSE(parse_schedule("0,,1").has_value());
  EXPECT_FALSE(parse_schedule("0;1").has_value());
}

TEST(Schedule, ArtifactLineIsGreppable) {
  const FailureArtifact a{"v2-read-share", 7, 3, 2, {0, 1, 0}, "boom"};
  EXPECT_EQ(format_artifact(a),
            "VFT-SCHED-FAIL scenario=v2-read-share seed=7 run=3 "
            "preemptions=2 schedule=0,1,0 error=boom");
}

TEST(ScriptedOrder, DrivesRealThreadsInScheduleOrder) {
  ScriptedOrder order({0, 1, 1, 0});
  std::vector<int> log;
  std::thread a([&] {
    order.step(0, [&] { log.push_back(10); });
    order.step(0, [&] { log.push_back(11); });
  });
  std::thread b([&] {
    order.step(1, [&] { log.push_back(20); });
    order.step(1, [&] { log.push_back(21); });
  });
  a.join();
  b.join();
  EXPECT_EQ(log, (std::vector<int>{10, 20, 21, 11}));
  EXPECT_EQ(order.consumed(), 4u);
}

TEST(Conflicting, SameObjectNeedsAWriter) {
  int x = 0, y = 0;
  const PendingOp la{PointKind::kLoad, &x};
  const PendingOp lb{PointKind::kLoad, &y};
  const PendingOp sa{PointKind::kStore, &x};
  const PendingOp ca{PointKind::kCas, &x};
  EXPECT_FALSE(conflicting(la, la));  // read/read commutes
  EXPECT_FALSE(conflicting(la, lb));
  EXPECT_FALSE(conflicting(sa, lb));  // different objects commute
  EXPECT_TRUE(conflicting(la, sa));
  EXPECT_TRUE(conflicting(ca, ca));
  EXPECT_TRUE(conflicting({PointKind::kSpin, &x}, lb));  // conservative
}

// --- harness self-tests ----------------------------------------------------

TEST(SchedExplore, FindsTheToyDeadlock) {
  const ExploreResult r = run_dfs("toy-deadlock");
  EXPECT_GT(r.deadlocks, 0u);   // AB-BA must be found...
  EXPECT_GT(r.schedules, 0u);   // ...and non-deadlocking orders completed
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.livelocks, 0u);
}

TEST(SchedExplore, DfsIsDeterministic) {
  const ExploreResult a = run_dfs("v2-read-share");
  const ExploreResult b = run_dfs("v2-read-share");
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(SchedExplore, ReplayRejectsForeignSchedules) {
  const Scenario* sc = find_scenario("v2-read-share");
  ASSERT_NE(sc, nullptr);
  ReplayOutcome bad = replay(sc->make, Schedule{5, 5, 5});
  ASSERT_TRUE(bad.error.has_value());
  EXPECT_NE(bad.error->find("does not match"), std::string::npos);

  ReplayOutcome short_one = replay(sc->make, Schedule{0});
  ASSERT_TRUE(short_one.error.has_value());
  EXPECT_NE(short_one.error->find("ended before"), std::string::npos);
}

TEST(SchedExplore, ReplayReproducesACompleteSchedule) {
  // Take any complete schedule found by DFS and re-execute it: it must
  // complete and pass the oracle check again.
  const Scenario* sc = find_scenario("v2-read-share");
  ASSERT_NE(sc, nullptr);
  Schedule first;
  ExploreConfig cfg;
  cfg.max_schedules = 1;
  Scheduler sched;
  Instance inst = sc->make();
  const Scheduler::Result r = sched.run(
      inst.bodies, [](const std::vector<ThreadView>& views) {
        for (const ThreadView& v : views) {
          if (v.enabled) return std::optional<std::uint32_t>(v.tid);
        }
        return std::optional<std::uint32_t>();
      });
  ASSERT_TRUE(r.completed);
  const ReplayOutcome again = replay(sc->make, r.schedule);
  EXPECT_TRUE(again.result.completed);
  EXPECT_FALSE(again.error.has_value()) << *again.error;
}

// --- exhaustive scenario suites -------------------------------------------
// The EXPECT_EQ baselines pin the schedule counts: a pruning regression
// (or an instrumentation point added/removed from a hot path) changes
// them and must be acknowledged by re-baselining.

TEST(SchedExplore, V2ReadShareExhaustive) {
  const ExploreResult r = run_dfs("v2-read-share");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 62u);
}

TEST(SchedExplore, V2ReadWriteRaceExhaustive) {
  const ExploreResult r = run_dfs("v2-read-write-race");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 18u);
}

TEST(SchedExplore, FtCasReadShareExhaustive) {
  const ExploreResult r = run_dfs("ftcas-read-share");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 42u);
}

TEST(SchedExplore, FtCasReadWriteRaceExhaustive) {
  const ExploreResult r = run_dfs("ftcas-read-write-race");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 16u);
}

TEST(SchedExplore, PackedEscalateExhaustive) {
  const ExploreResult r = run_dfs("packed-escalate");
  expect_clean(r);
  // Acceptance criterion: the two-thread escalation scenario visits at
  // least 100 distinct schedules, every terminal state Spec-checked
  // (expect_clean above: zero failures out of all of them).
  EXPECT_GE(r.schedules, 100u);
  EXPECT_EQ(r.schedules, 970u);
}

TEST(SchedExplore, PackedWriteRaceExhaustive) {
  const ExploreResult r = run_dfs("packed-write-race");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 16u);
}

TEST(SchedExplore, PackedMissedRaceBounded) {
  // Both threads take the full slow path here (contended escalation), so
  // unbounded DFS is out of reach; preemption bound 2 still covers every
  // window the publication protocol has (the seeded bug needs one).
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  const ExploreResult r = run_dfs("packed-missed-race", cfg);
  expect_clean(r);
  EXPECT_EQ(r.schedules, 105u);
}

TEST(SchedExplore, VolatilePublishBounded) {
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  const ExploreResult r = run_dfs("volatile-publish", cfg);
  expect_clean(r);
  EXPECT_EQ(r.schedules, 19u);
}

TEST(SchedExplore, VolatileStaleEpochBounded) {
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  const ExploreResult r = run_dfs("volatile-stale-epoch", cfg);
  expect_clean(r);
  EXPECT_EQ(r.schedules, 47u);
}

// Atomic sync-state scenarios (vft/atomics.h): every interleaving of the
// fast-epoch arm store, the acquire load's fast-skip read, and the sync
// mutex sections is Spec-checked, including that the relaxed variant
// reports the race in every schedule its gate makes reachable and that
// publishers on a SHARED arm never leave a stale armed epoch.

TEST(SchedExplore, AtomicHandoffExhaustive) {
  const ExploreResult r = run_dfs("atomic-handoff");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 21u);
}

TEST(SchedExplore, AtomicHandoffRelaxedExhaustive) {
  const ExploreResult r = run_dfs("atomic-handoff-relaxed");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 9u);
}

TEST(SchedExplore, AtomicCasPublishExhaustive) {
  const ExploreResult r = run_dfs("atomic-cas-publish");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 104u);
}

TEST(SchedExplore, AtomicSharedRearmExhaustive) {
  const ExploreResult r = run_dfs("atomic-shared-rearm");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 34u);
}

// Sync-state creation on a fresh shadow page: every interleaving of the
// page, sync-table and sync-object publication CASes of a first lock use,
// a first atomic use of the same address and a first write to the page.

TEST(SchedExplore, SyncCreateExhaustive) {
  const ExploreResult r = run_dfs("sync-create");
  expect_clean(r);
  EXPECT_EQ(r.schedules, 35u);
}

TEST(SchedExplore, SleepSetsOnlyPrune) {
  // Same scenario with pruning off: strictly more schedules, same verdict.
  // (v2-read-share, not packed-escalate: the latter's unpruned space is
  // ~500k schedules - correct, but minutes of test time for no signal.)
  ExploreConfig off;
  off.sleep_sets = false;
  const ExploreResult full = run_dfs("v2-read-share", off);
  const ExploreResult pruned = run_dfs("v2-read-share");
  expect_clean(full);
  EXPECT_GT(full.schedules, pruned.schedules);
  EXPECT_EQ(full.failures, pruned.failures);
}

// --- mutation smoke tests --------------------------------------------------
// A harness that explores but cannot fail is worthless: seed each of the
// two ordering bugs, assert the explorer finds it, replay the artifact,
// then assert the unmutated build is clean again.

TEST(SchedMutation, VolatileValueBeforeArmIsCaught) {
  Mutations::reset();
  const Scenario* sc = find_scenario("volatile-stale-epoch");
  ASSERT_NE(sc, nullptr);
  ExploreConfig cfg;
  // The mutated store publishes its value before its whole
  // atomic_publish, so one switch exposes the bug: the reader cuts in
  // after the second store's early value, slow-joins the first arm's
  // clock on its first load, then skips on that arm (which it now knows)
  // on its second and reads y unordered. Measured failures: 1/20
  // schedules at bound 1, 3/46 at bound 2, 16/99 at bound 3; bound 3
  // also covers the deeper interleavings where the reader's slow join
  // precedes the writer's second store.
  cfg.preemption_bound = 3;
  {
    ScopedMutation arm(Mutations::volatile_value_before_arm);
    const ExploreResult r = explore_dfs(sc->make, cfg);
    std::cout << "[sched] mutated volatile-stale-epoch: failures="
              << r.failures << "/" << r.schedules << "\n";
    ASSERT_GT(r.failures, 0u);
    ASSERT_FALSE(r.artifacts.empty());
    // The recorded schedule reproduces the violation while the bug is in.
    const ReplayOutcome again = replay(sc->make, r.artifacts[0].schedule);
    ASSERT_TRUE(again.error.has_value());
    EXPECT_EQ(*again.error, r.artifacts[0].error);
  }
  // Knob off: same exploration is clean (the negative control).
  const ExploreResult clean = explore_dfs(sc->make, cfg);
  EXPECT_EQ(clean.failures, 0u);
}

TEST(SchedMutation, EscalatePublishBeforeInjectIsCaught) {
  Mutations::reset();
  const Scenario* sc = find_scenario("packed-missed-race");
  ASSERT_NE(sc, nullptr);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  {
    ScopedMutation arm(Mutations::escalate_publish_before_inject);
    const ExploreResult r = explore_dfs(sc->make, cfg);
    std::cout << "[sched] mutated packed-missed-race: failures=" << r.failures
              << "/" << r.schedules << "\n";
    ASSERT_GT(r.failures, 0u);
    ASSERT_FALSE(r.artifacts.empty());
    const ReplayOutcome again = replay(sc->make, r.artifacts[0].schedule);
    ASSERT_TRUE(again.error.has_value());
    EXPECT_EQ(*again.error, r.artifacts[0].error);
  }
  const ExploreResult clean = explore_dfs(sc->make, cfg);
  EXPECT_EQ(clean.failures, 0u);
}

// --- PCT sampler -----------------------------------------------------------

TEST(SchedPct, IsDeterministicPerSeed) {
  const Scenario* sc = find_scenario("packed-escalate");
  ASSERT_NE(sc, nullptr);
  PctConfig cfg;
  cfg.seed = 42;
  cfg.runs = 25;
  const PctResult a = explore_pct(sc->make, cfg);
  const PctResult b = explore_pct(sc->make, cfg);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failures, 0u);
}

TEST(SchedPct, FindsTheSeededEscalationBugAndArtifactReplays) {
  // PCT is targeted at the depth-2 escalation bug: its failure window is
  // wide (a fifth of bounded DFS schedules expose it), which is the
  // regime PCT's depth-d guarantee covers. The volatile bug's window is
  // narrower (3-4 of 200 PCT runs at d=3 for seeds 1-3) - that one stays
  // a DFS target above.
  Mutations::reset();
  const Scenario* sc = find_scenario("packed-missed-race");
  ASSERT_NE(sc, nullptr);
  PctConfig cfg;
  cfg.seed = 1;
  cfg.preemptions = 3;
  cfg.runs = 200;
  cfg.length_hint = 32;
  ScopedMutation arm(Mutations::escalate_publish_before_inject);
  const PctResult r = explore_pct(sc->make, cfg);
  std::cout << "[sched] PCT mutated packed-missed-race: failures="
            << r.failures << "/" << r.runs << "\n";
  ASSERT_GT(r.failures, 0u);
  ASSERT_FALSE(r.artifacts.empty());
  FailureArtifact a = r.artifacts[0];
  a.scenario = "packed-missed-race";
  std::cout << "  " << format_artifact(a) << "\n";
  // The CI triage loop: the schedule alone reproduces the failure.
  const ReplayOutcome again = replay(sc->make, a.schedule);
  ASSERT_TRUE(again.error.has_value());
  EXPECT_EQ(*again.error, a.error);
}

}  // namespace
}  // namespace vft::sched
