// RaceCollector behaviour: error-context folding, report formatting,
// suppression accounting, and the lock-free fold of known contexts.
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
  ASSERT_EQ(c.contexts().size(), 2u);
  EXPECT_EQ(c.contexts()[1].first.var, 2u);
}

TEST(RaceCollector, DuplicateOccurrencesFoldIntoOneContext) {
  RaceCollector c;
  for (int i = 0; i < 5; ++i) c.report(sample(RaceKind::kWriteWrite, 7));
  EXPECT_EQ(c.count(), 5u);          // every occurrence still counts
  EXPECT_EQ(c.context_count(), 1u);  // ...in one deduplicated context
  ASSERT_EQ(c.contexts().size(), 1u);
  EXPECT_EQ(c.contexts()[0].count, 5u);
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

TEST(RaceCollector, ClearResetsCountsAndSuppression) {
  RaceCollector c;
  ASSERT_TRUE(c.load_suppressions_text(
      "{\n hide-ww\n vft:write-write*\n ...\n}\n", "test"));
  c.report(sample(RaceKind::kWriteRead, 1));
  c.report(sample(RaceKind::kWriteWrite, 1));  // second context: hidden
  EXPECT_EQ(c.suppressed(), 1u);
  c.clear();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.suppressed(), 0u);
  EXPECT_EQ(c.context_count(), 0u);
  c.report(sample(RaceKind::kWriteRead, 1));
  EXPECT_EQ(c.count(), 1u);
}

TEST(RaceCollector, DescribeUsesRegisteredNames) {
  RaceCollector c;
  c.name_var(42, "Account.balance");
  const RaceReport named = sample(RaceKind::kWriteWrite, 42);
  const std::string with_name = c.describe(named);
  EXPECT_NE(with_name.find("Account.balance"), std::string::npos);
  const RaceReport unnamed = sample(RaceKind::kWriteWrite, 43);
  const std::string without = c.describe(unnamed);
  EXPECT_NE(without.find("var 43"), std::string::npos);
  // One formatter: describe() is str() with the label swapped.
  EXPECT_EQ(with_name, named.str("Account.balance"));
  EXPECT_EQ(without, unnamed.str());
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
  ASSERT_EQ(c.contexts().size(), 1u);
  EXPECT_EQ(c.contexts()[0].count, 2u);
  // The kind is part of the key.
  EXPECT_FALSE(c.fold(sample(RaceKind::kWriteWrite, 5), CallStack{}));
}

TEST(RaceCollector, RepeatsCountExactlyAndKeepTheFirstOccurrence) {
  RaceCollector c;
  constexpr std::size_t kTotal = 70000;
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
  // Each context keeps its first occurrence as the representative.
  EXPECT_EQ(ctxs[1].first.var, 2u);
  EXPECT_EQ(ctxs[1].first.current, Epoch::make(2, 2));
  ASSERT_TRUE(c.first().has_value());
  EXPECT_EQ(c.first()->var, 1u);
  EXPECT_EQ(c.first()->current, Epoch::make(2, 1));
}

TEST(RaceCollector, ConcurrentRepeatsAndCreationsCountExactly) {
  // Four threads fold into three shared contexts while a fifth creates
  // new ones: lock-free lookups run while nodes are being published.
  RaceCollector c;
  constexpr int kRepeaters = 4, kShared = 3, kEach = 6000, kCreated = 500;
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
  constexpr std::size_t kVisible = 70010;
  constexpr std::size_t kRuled = 71000;
  for (std::size_t i = 0; i < kVisible; ++i) {
    occur(c, sample(RaceKind::kWriteRead, 1));
  }
  for (std::size_t i = 0; i < kRuled; ++i) {
    occur(c, sample(RaceKind::kWriteWrite, 2));
  }
  EXPECT_EQ(c.count(), kVisible);  // the hidden context does not count
  EXPECT_EQ(c.context_count(), 1u);
  EXPECT_EQ(c.suppressed(), kRuled);
  const auto stats = c.suppression_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].first, "hide-ww");
  EXPECT_EQ(stats[0].second, kRuled);
  const auto ctxs = c.contexts();
  ASSERT_EQ(ctxs.size(), 2u);
  EXPECT_NE(ctxs[1].suppressed_by, nullptr);
  EXPECT_EQ(ctxs[1].count, kRuled);
  ASSERT_TRUE(c.first().has_value());
  EXPECT_EQ(c.first()->kind, RaceKind::kWriteRead);
}

TEST(RaceCollector, ClearAfterRepeatsStartsOver) {
  RaceCollector c;
  const RaceReport r = sample(RaceKind::kWriteRead, 9);
  for (std::size_t i = 0; i < 100; ++i) occur(c, r);
  ASSERT_EQ(c.count(), 100u);
  c.clear();
  EXPECT_TRUE(c.empty());
  occur(c, r);  // a new context again
  EXPECT_EQ(c.count(), 1u);
  ASSERT_EQ(c.contexts().size(), 1u);
  EXPECT_EQ(c.contexts()[0].count, 1u);
  occur(c, r);  // folds into the new context
  EXPECT_EQ(c.contexts()[0].count, 2u);
}

}  // namespace
}  // namespace vft
