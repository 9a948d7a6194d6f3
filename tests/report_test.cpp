// RaceCollector behaviour: error-context folding, report formatting,
// limits, the flat compatibility views, and the lock-free fold of known
// contexts past the flat log's cap.
//
// Reports here carry no call stack (unit-level callers never arm the
// interposition boundary), so contexts key on (kind, var) - the
// documented fallback - and "one context" below means one distinct
// (kind, var) pair.
#include "vft/report.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace vft {
namespace {

RaceReport sample(RaceKind k, std::uint64_t var) {
  return RaceReport{k, var, 2, Epoch::make(1, 5), Epoch::make(2, 3), {}};
}

/// What the detectors' report hook does: fold a repeat, create on a miss.
void occur(RaceCollector& c, const RaceReport& r) {
  if (!c.fold(r, r.stack)) c.report(r);
}

constexpr std::size_t kCap = RaceCollector::kFlatCap;

TEST(RaceCollector, StartsEmpty) {
  RaceCollector c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.count(), 0u);
  EXPECT_EQ(c.context_count(), 0u);
  EXPECT_FALSE(c.first().has_value());
}

TEST(RaceCollector, RecordsInOrder) {
  RaceCollector c;
  c.report(sample(RaceKind::kWriteWrite, 1));
  c.report(sample(RaceKind::kReadWrite, 2));
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.context_count(), 2u);
  EXPECT_EQ(c.first()->var, 1u);
  EXPECT_EQ(c.all()[1].var, 2u);
}

TEST(RaceCollector, DuplicateOccurrencesFoldIntoOneContext) {
  RaceCollector c;
  for (int i = 0; i < 5; ++i) c.report(sample(RaceKind::kWriteWrite, 7));
  EXPECT_EQ(c.count(), 5u);          // every occurrence still counts
  EXPECT_EQ(c.context_count(), 1u);  // ...in one deduplicated context
  ASSERT_EQ(c.contexts().size(), 1u);
  EXPECT_EQ(c.contexts()[0].count, 5u);
  EXPECT_EQ(c.all().size(), 5u);  // flat view expands the count
}

TEST(RaceCollector, DistinctKindsAreDistinctContexts) {
  RaceCollector c;
  c.report(sample(RaceKind::kWriteWrite, 7));
  c.report(sample(RaceKind::kWriteRead, 7));
  EXPECT_EQ(c.context_count(), 2u);
}

TEST(RaceCollector, ClearResets) {
  RaceCollector c;
  c.report(sample(RaceKind::kWriteRead, 3));
  c.clear();
  EXPECT_TRUE(c.empty());
}

TEST(RaceCollector, ConcurrentReportsAllLand) {
  RaceCollector c;
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < kEach; ++i) {
        c.report(sample(RaceKind::kWriteWrite,
                        static_cast<std::uint64_t>(t * kEach + i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.count(), static_cast<std::size_t>(kThreads * kEach));
}

TEST(RaceCollector, ConcurrentSameContextCountsEveryOccurrence) {
  RaceCollector c;
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kEach; ++i) {
        c.report(sample(RaceKind::kWriteWrite, 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.count(), static_cast<std::size_t>(kThreads * kEach));
  EXPECT_EQ(c.context_count(), 1u);
}

TEST(RaceReport, StrNamesKindThreadsAndEpochs) {
  const std::string s = sample(RaceKind::kSharedWrite, 42).str();
  EXPECT_NE(s.find("shared-write race"), std::string::npos);
  EXPECT_NE(s.find("var 42"), std::string::npos);
  EXPECT_NE(s.find("thread 2"), std::string::npos);
  EXPECT_NE(s.find("1@5"), std::string::npos);
  EXPECT_NE(s.find("2@3"), std::string::npos);
}

TEST(RaceCollector, PerVarLimitHidesExcessContextsButCounts) {
  RaceCollector c;
  c.set_per_var_limit(2);
  // Three distinct contexts on var 7 (three kinds); the third arrives
  // over the limit and is recorded hidden.
  c.report(sample(RaceKind::kWriteWrite, 7));
  c.report(sample(RaceKind::kWriteRead, 7));
  c.report(sample(RaceKind::kReadWrite, 7));
  c.report(sample(RaceKind::kWriteWrite, 8));  // different var: unaffected
  EXPECT_EQ(c.count(), 3u);       // 2 visible for var 7, 1 for var 8
  EXPECT_EQ(c.suppressed(), 1u);  // the over-limit context's occurrence
  EXPECT_FALSE(c.empty());        // suppression still means "racy run"
  // Repeats of an already-visible context are never limited - dedup
  // made the limits context guards, not occurrence guards.
  c.report(sample(RaceKind::kWriteWrite, 7));
  EXPECT_EQ(c.count(), 4u);
  // Repeats of the hidden context keep accruing to suppressed.
  c.report(sample(RaceKind::kReadWrite, 7));
  EXPECT_EQ(c.suppressed(), 2u);
}

TEST(RaceCollector, TotalLimitCapsVisibleContexts) {
  RaceCollector c;
  c.set_total_limit(3);
  for (std::uint64_t v = 0; v < 10; ++v) {
    c.report(sample(RaceKind::kReadWrite, v));
  }
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.context_count(), 3u);
  EXPECT_EQ(c.suppressed(), 7u);
}

TEST(RaceCollector, ClearResetsLimitsCountsAndSuppression) {
  RaceCollector c;
  c.set_per_var_limit(1);
  c.report(sample(RaceKind::kWriteRead, 1));
  c.report(sample(RaceKind::kWriteWrite, 1));  // second context: hidden
  EXPECT_EQ(c.suppressed(), 1u);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.suppressed(), 0u);
  c.report(sample(RaceKind::kWriteRead, 1));  // budget is fresh again
  EXPECT_EQ(c.count(), 1u);
}

TEST(RaceCollector, DescribeUsesRegisteredNames) {
  RaceCollector c;
  c.name_var(42, "Account.balance");
  const std::string with_name = c.describe(sample(RaceKind::kWriteWrite, 42));
  EXPECT_NE(with_name.find("Account.balance"), std::string::npos);
  const std::string without = c.describe(sample(RaceKind::kWriteWrite, 43));
  EXPECT_NE(without.find("var 43"), std::string::npos);
}

TEST(RaceKindNames, AllDistinct) {
  EXPECT_STRNE(race_kind_name(RaceKind::kWriteRead),
               race_kind_name(RaceKind::kWriteWrite));
  EXPECT_STRNE(race_kind_name(RaceKind::kReadWrite),
               race_kind_name(RaceKind::kSharedWrite));
}

TEST(RaceCollector, StackedReportsKeyByStackNotVar) {
  RaceCollector c;
  RaceReport a = sample(RaceKind::kWriteWrite, 1);
  a.stack.push(0x1000);
  a.stack.push(0x2000);
  RaceReport b = sample(RaceKind::kWriteWrite, 2);  // different var...
  b.stack.push(0x1000);
  b.stack.push(0x2000);  // ...same racing call stack
  c.report(a);
  c.report(b);
  EXPECT_EQ(c.context_count(), 1u);  // one access site = one context
  EXPECT_EQ(c.count(), 2u);

  RaceReport d = sample(RaceKind::kWriteWrite, 1);
  d.stack.push(0x3000);  // same var, different site: a new context
  c.report(d);
  EXPECT_EQ(c.context_count(), 2u);
}

TEST(RaceCollector, FoldMissesUnknownContextsAndCountsKnownOnes) {
  RaceCollector c;
  const RaceReport r = sample(RaceKind::kWriteRead, 5);
  EXPECT_FALSE(c.fold(r, r.stack));  // unknown: the caller must report()
  EXPECT_TRUE(c.empty());
  c.report(r);
  EXPECT_TRUE(c.fold(r, r.stack));
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.all().size(), 2u);
  // The kind is part of the key.
  EXPECT_FALSE(c.fold(sample(RaceKind::kWriteWrite, 5), CallStack{}));
}

TEST(RaceCollector, RepeatsPastTheFlatCapCountExactly) {
  RaceCollector c;
  constexpr std::size_t kTotal = kCap + 5000;
  for (std::size_t i = 0; i < kTotal; ++i) {
    RaceReport r = sample(i % 2 == 0 ? RaceKind::kWriteWrite
                                     : RaceKind::kReadWrite,
                          i % 2 == 0 ? 1 : 2);
    r.current = Epoch::make(2, static_cast<Clock>(i + 1));
    occur(c, r);
  }
  EXPECT_EQ(c.count(), kTotal);
  EXPECT_EQ(c.context_count(), 2u);
  EXPECT_EQ(c.suppressed(), 0u);
  const auto ctxs = c.contexts();
  ASSERT_EQ(ctxs.size(), 2u);
  EXPECT_EQ(ctxs[0].count, kTotal / 2);
  EXPECT_EQ(ctxs[1].count, kTotal / 2);
  // The flat log keeps the first kCap occurrences, in arrival order.
  const auto flat = c.all();
  ASSERT_EQ(flat.size(), kCap);
  for (std::size_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(flat[i].var, i % 2 == 0 ? 1u : 2u) << i;
    ASSERT_EQ(flat[i].current, Epoch::make(2, static_cast<Clock>(i + 1)))
        << i;
  }
  ASSERT_TRUE(c.first().has_value());
  EXPECT_EQ(c.first()->var, 1u);
  EXPECT_EQ(c.first()->current, Epoch::make(2, 1));
}

TEST(RaceCollector, ConcurrentRepeatsPastTheFlatCapCountExactly) {
  RaceCollector c;
  constexpr int kRepeaters = 4, kShared = 3, kEach = 6000, kCreated = 500;
  static_assert(std::size_t{kRepeaters} * kShared * kEach > kCap);
  std::vector<std::thread> threads;
  for (int t = 0; t < kRepeaters; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kEach; ++i) {
        for (int k = 0; k < kShared; ++k) {
          occur(c, sample(RaceKind::kWriteWrite,
                          static_cast<std::uint64_t>(k)));
        }
      }
    });
  }
  threads.emplace_back([&c] {
    for (int i = 0; i < kCreated; ++i) {
      occur(c, sample(RaceKind::kReadWrite,
                      static_cast<std::uint64_t>(1000 + i)));
    }
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(c.count(),
            static_cast<std::size_t>(kRepeaters * kShared * kEach + kCreated));
  EXPECT_EQ(c.context_count(), static_cast<std::size_t>(kShared + kCreated));
  EXPECT_EQ(c.all().size(), kCap);
  std::size_t shared = 0, created = 0;
  for (const RaceContext& ctx : c.contexts()) {
    if (ctx.first.kind == RaceKind::kWriteWrite) {
      ++shared;
      EXPECT_EQ(ctx.count, static_cast<std::uint64_t>(kRepeaters * kEach));
    } else {
      ++created;
      EXPECT_EQ(ctx.count, 1u);
    }
  }
  EXPECT_EQ(shared, static_cast<std::size_t>(kShared));
  EXPECT_EQ(created, static_cast<std::size_t>(kCreated));
}

TEST(RaceCollector, HiddenContextsFoldAndStillCountAsSuppressed) {
  RaceCollector c;
  ASSERT_TRUE(c.load_suppressions_text(
      "{\n hide-ww\n vft:write-write*\n ...\n}\n", "test"));
  c.set_per_var_limit(1);
  constexpr std::size_t kVisible = kCap + 10;
  constexpr std::size_t kRuled = kCap + 1000;
  constexpr std::size_t kDropped = kCap + 2000;
  // One visible context on var 1 fills the flat log; a second context on
  // var 1 arrives over the per-variable limit.
  for (std::size_t i = 0; i < kVisible; ++i) {
    occur(c, sample(RaceKind::kWriteRead, 1));
  }
  for (std::size_t i = 0; i < kRuled; ++i) {
    occur(c, sample(RaceKind::kWriteWrite, 2));
  }
  for (std::size_t i = 0; i < kDropped; ++i) {
    occur(c, sample(RaceKind::kReadWrite, 1));
  }
  EXPECT_EQ(c.count(), kVisible);  // neither hidden context counts
  EXPECT_EQ(c.context_count(), 1u);
  EXPECT_EQ(c.suppressed(), kRuled + kDropped);
  EXPECT_EQ(c.all().size(), kCap);
  const auto stats = c.suppression_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "hide-ww");
  EXPECT_EQ(stats[0].second, kRuled);
  const auto ctxs = c.contexts();
  ASSERT_EQ(ctxs.size(), 3u);
  EXPECT_NE(ctxs[1].suppressed_by, nullptr);
  EXPECT_EQ(ctxs[1].count, kRuled);
  EXPECT_TRUE(ctxs[2].limit_dropped);
  EXPECT_EQ(ctxs[2].count, kDropped);
}

TEST(RaceCollector, ClearAfterTheCapStartsOver) {
  RaceCollector c;
  const RaceReport r = sample(RaceKind::kWriteRead, 9);
  for (std::size_t i = 0; i < kCap + 100; ++i) occur(c, r);
  ASSERT_EQ(c.all().size(), kCap);
  c.clear();
  EXPECT_TRUE(c.empty());
  occur(c, r);  // a new context again
  EXPECT_EQ(c.count(), 1u);
  ASSERT_EQ(c.contexts().size(), 1u);
  EXPECT_EQ(c.contexts()[0].count, 1u);
  EXPECT_EQ(c.all().size(), 1u);
  occur(c, r);  // the flat log has room again
  EXPECT_EQ(c.all().size(), 2u);
}

}  // namespace
}  // namespace vft
