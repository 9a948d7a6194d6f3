// Rule-frequency accounting: the machinery behind experiment E3 (the
// Section 5 access-mix claim). Checks exact counts on hand traces and the
// fast-path dominance property on a read-shared workload.
#include "vft/stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "trace/replay.h"
#include "trace/trace.h"
#include "vft/detector.h"

namespace vft {
namespace {

TEST(RuleStats, CountsExactRulesOnHandTrace) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t;
  // A reads x three times in one epoch: exclusive, then 2x same-epoch.
  t.push_back(trace::rd(0, 0));
  t.push_back(trace::rd(0, 0));
  t.push_back(trace::rd(0, 0));
  // B joins the party: share, then shared-same-epoch.
  t.push_back(trace::rd(1, 0));
  t.push_back(trace::rd(1, 0));
  // A writes its own variable twice.
  t.push_back(trace::wr(0, 1));
  t.push_back(trace::wr(0, 1));
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kReadExclusive), 1u);
  EXPECT_EQ(stats.count(Rule::kReadSameEpoch), 2u);
  EXPECT_EQ(stats.count(Rule::kReadShare), 1u);
  EXPECT_EQ(stats.count(Rule::kReadSharedSameEpoch), 1u);
  EXPECT_EQ(stats.count(Rule::kWriteExclusive), 1u);
  EXPECT_EQ(stats.count(Rule::kWriteSameEpoch), 1u);
  EXPECT_EQ(stats.total_accesses(), 7u);
}

TEST(RuleStats, SyncOpsCounted) {
  RaceCollector rc;
  RuleStats stats;
  VftV1 d(&rc, &stats);
  trace::Trace t = {trace::acq(0, 0), trace::rel(0, 0), trace::fork(0, 1),
                    trace::rd(1, 0), trace::join(0, 1)};
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kAcquire), 1u);
  EXPECT_EQ(stats.count(Rule::kRelease), 1u);
  EXPECT_EQ(stats.count(Rule::kFork), 1u);
  EXPECT_EQ(stats.count(Rule::kJoin), 1u);
}

TEST(RuleStats, RaceRulesCounted) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t = {trace::wr(0, 0), trace::wr(1, 0)};
  trace::replay(t, d);
  EXPECT_EQ(stats.count(Rule::kWriteWriteRace), 1u);
}

TEST(RuleStats, ResetZeroesEverything) {
  RuleStats stats;
  stats.bump(Rule::kReadSameEpoch);
  stats.bump(Rule::kFork);
  stats.reset();
  EXPECT_EQ(stats.count(Rule::kReadSameEpoch), 0u);
  EXPECT_EQ(stats.count(Rule::kFork), 0u);
  EXPECT_EQ(stats.total_accesses(), 0u);
}

// More threads than shards, all live at once, so some of them share a
// shard and contend on it: every count must still be exact once they are
// joined, single and bulk bumps alike, and reset() must clear all shards.
TEST(RuleStats, ConcurrentBumpsSumExactly) {
  RuleStats stats;
  constexpr std::uint32_t kThreads = CounterShard::kCount + 16;
  constexpr std::uint64_t kSingle = 300;  // bump(r) calls per rule
  constexpr std::uint64_t kBulk = 7;      // bump(r, n) calls per rule
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t r = 0; r < RuleStats::kN; ++r) {
        const Rule rule = static_cast<Rule>(r);
        for (std::uint64_t i = 0; i < kSingle; ++i) stats.bump(rule);
        for (std::uint64_t i = 0; i < kBulk; ++i) stats.bump(rule, t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Each thread t adds kSingle + kBulk * (t + 1) to every rule.
  const std::uint64_t per_rule =
      kThreads * kSingle + kBulk * kThreads * (kThreads + 1) / 2;
  for (std::size_t r = 0; r < RuleStats::kN; ++r) {
    const Rule rule = static_cast<Rule>(r);
    EXPECT_EQ(stats.count(rule), per_rule) << rule_name(rule);
  }
  const std::size_t access_rules =
      static_cast<std::size_t>(Rule::kSharedWriteRace) + 1;
  EXPECT_EQ(stats.total_accesses(), access_rules * per_rule);
  stats.reset();
  for (std::size_t r = 0; r < RuleStats::kN; ++r) {
    EXPECT_EQ(stats.count(static_cast<Rule>(r)), 0u);
  }
  EXPECT_EQ(stats.total_accesses(), 0u);
}

// counter_addr is the calling thread's own counter: two fresh threads get
// distinct addresses, and an add through each counts exactly once.
TEST(RuleStats, CounterAddrIsPerThread) {
  RuleStats stats;
  std::atomic<std::uint64_t>* addr[2] = {nullptr, nullptr};
  for (auto* slot : {&addr[0], &addr[1]}) {
    std::thread([&stats, slot] {
      *slot = stats.counter_addr(Rule::kFastReadHit);
      (*slot)->fetch_add(1, std::memory_order_relaxed);
    }).join();
  }
  EXPECT_NE(addr[0], addr[1]);
  EXPECT_EQ(stats.count(Rule::kFastReadHit), 2u);
}

TEST(RuleStats, NullStatsPointerIsSafe) {
  RaceCollector rc;
  VftV2 d(&rc, nullptr);  // the default bench configuration
  trace::Trace t = {trace::rd(0, 0), trace::rd(0, 0)};
  const auto result = trace::replay(t, d);
  EXPECT_FALSE(result.first_race.has_value());
}

// Re-reading shared data within an epoch must funnel into the same-epoch
// fast rules - the property that makes v2's lock-free paths matter.
TEST(RuleStats, ReadSharedWorkloadIsFastPathDominated) {
  RaceCollector rc;
  RuleStats stats;
  VftV2 d(&rc, &stats);
  trace::Trace t;
  for (Tid th = 0; th < 4; ++th) {
    for (int rep = 0; rep < 50; ++rep) {
      for (VarId x = 0; x < 4; ++x) t.push_back(trace::rd(th, x));
    }
  }
  trace::replay(t, d);
  const std::uint64_t fast = stats.count(Rule::kReadSameEpoch) +
                             stats.count(Rule::kReadSharedSameEpoch) +
                             stats.count(Rule::kWriteSameEpoch);
  const std::uint64_t total = stats.total_accesses();
  EXPECT_GT(static_cast<double>(fast) / static_cast<double>(total), 0.9);
}

}  // namespace
}  // namespace vft
