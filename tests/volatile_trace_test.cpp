// Volatile operations in the trace language: parsing, spec semantics
// (acquire/release-like edges), oracle agreement, and detector replay.
#include <gtest/gtest.h>

#include <iostream>
#include <set>

#include "trace/feasibility.h"
#include "trace/generator.h"
#include "trace/hb_oracle.h"
#include "trace/replay.h"
#include "vft/checked.h"
#include "vft/detector.h"

namespace vft::trace {
namespace {

TEST(VolatileTrace, ParsePrintRoundTrip) {
  const Trace t = {vwr(0, 3), vrd(1, 3), rd(1, 0)};
  EXPECT_EQ(to_string(t), "vwr(0,v3); vrd(1,v3); rd(1,x0)");
  Trace parsed;
  ASSERT_TRUE(parse(to_string(t), &parsed));
  EXPECT_EQ(parsed, t);
}

TEST(VolatileTrace, PublicationOrdersAccesses) {
  // The classic volatile-flag publication: data write, volatile write,
  // volatile read, data read. Race-free.
  const Trace t = {wr(0, 7), vwr(0, 1), vrd(1, 1), rd(1, 7)};
  ASSERT_TRUE(is_feasible(t));
  EXPECT_TRUE(analyze(t).race_free());
  EXPECT_TRUE(analyze_closure(t).race_free());
  Spec spec;
  EXPECT_FALSE(replay_spec(t, spec).error_index.has_value());
}

TEST(VolatileTrace, ReadBeforeWriteGivesNoEdge) {
  // The read precedes the write: no ordering flows, the data accesses race.
  const Trace t = {vrd(1, 1), wr(0, 7), vwr(0, 1), rd(1, 7)};
  EXPECT_FALSE(analyze(t).race_free());
  EXPECT_FALSE(analyze_closure(t).race_free());
  Spec spec;
  EXPECT_TRUE(replay_spec(t, spec).error_index.has_value());
}

TEST(VolatileTrace, WritesDoNotOrderEachOther) {
  // Two volatile writers, then a reader: the reader is ordered after BOTH
  // writes, but the writers stay concurrent with each other - their
  // *data* writes race.
  const Trace t = {wr(0, 7), vwr(0, 1),   // writer A publishes
                   wr(1, 7),              // races with A's data write
                   vwr(1, 1), vrd(2, 1), rd(2, 7)};
  const HbResult res = analyze(t);
  ASSERT_FALSE(res.race_free());
  EXPECT_EQ(res.first_race->first, 0u);
  EXPECT_EQ(res.first_race->second, 2u);
  // And the closure oracle agrees about the pair.
  const HbResult res2 = analyze_closure(t);
  ASSERT_FALSE(res2.race_free());
  EXPECT_EQ(res2.first_race->second, 2u);
}

TEST(VolatileTrace, ReaderOrderedAfterAllEarlierWriters) {
  const Trace t = {wr(0, 5), vwr(0, 1), wr(1, 6), vwr(1, 1),
                   vrd(2, 1), rd(2, 5), rd(2, 6)};
  EXPECT_TRUE(analyze(t).race_free());
  EXPECT_TRUE(analyze_closure(t).race_free());
  Spec spec;
  EXPECT_FALSE(replay_spec(t, spec).error_index.has_value());
}

TEST(VolatileTrace, SpecVolWriteStartsNewEpoch) {
  Spec spec;
  const Epoch before = spec.thread_epoch(0);
  spec.on_vol_write(0, 1);
  EXPECT_EQ(spec.thread_epoch(0), before.inc());
  // And the volatile's clock recorded the writer.
  EXPECT_EQ(spec.vol_vc(1).get(0), before);
}

/// Replay a race-free `prefix` through `d` on an explicit store and
/// require every volatile's Sa.V and every thread's clock to equal the
/// Spec's after the same prefix: the fast-epoch skip in atomic_join may
/// only ever skip a join that would have been a no-op.
template <typename D>
void expect_sync_state_matches_spec(D& d, const Trace& prefix, Spec& spec,
                                    std::uint64_t seed) {
  ShadowStore<D> store;
  const ReplayResult run = replay(prefix, d, store);
  EXPECT_FALSE(run.first_race.has_value()) << D::kName << " seed " << seed;
  std::set<Tid> threads;
  std::set<std::uint64_t> vols;
  for (const Op& op : prefix) {
    threads.insert(op.t);
    if (op.kind == OpKind::kFork || op.kind == OpKind::kJoin) {
      threads.insert(static_cast<Tid>(op.target));
    }
    if (op.kind == OpKind::kVolRead || op.kind == OpKind::kVolWrite) {
      vols.insert(op.target);
    }
  }
  for (const std::uint64_t v : vols) {
    EXPECT_EQ(store.vol(v).sync_V, spec.vol_vc(v))
        << D::kName << " seed " << seed << " v" << v << ": "
        << store.vol(v).sync_V.str() << " vs " << spec.vol_vc(v).str();
  }
  for (const Tid t : threads) {
    EXPECT_EQ(store.thread(t).V, spec.thread_vc(t))
        << D::kName << " seed " << seed << " t" << t << ": "
        << store.thread(t).V.str() << " vs " << spec.thread_vc(t).str();
  }
}

TEST(VolatileTrace, DetectorsAgreeOnVolatileTraces) {
  std::size_t prefix_ops = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorConfig cfg;
    cfg.initial_threads = 3;
    cfg.max_threads = 2;
    cfg.vars = 5;
    cfg.volatiles = 3;
    cfg.volatile_fraction = 0.5;  // volatile-heavy sweep
    cfg.sync_fraction = 0.35;
    cfg.disciplined_fraction = 0.7;
    cfg.ops = 160;
    cfg.seed = seed;
    const Trace t = generate(cfg);
    ASSERT_TRUE(is_feasible(t));
    std::size_t vol_ops = 0;
    for (const Op& op : t) {
      vol_ops += op.kind == OpKind::kVolRead || op.kind == OpKind::kVolWrite;
    }
    Spec spec;
    const auto sr = replay_spec(t, spec);
    const HbResult oracle = analyze(t);
    ASSERT_EQ(oracle.race_free(), !sr.error_index.has_value())
        << "seed " << seed << "\n" << to_string(t);
    for_each_detector(nullptr, nullptr, [&](auto& d) {
      using D = std::decay_t<decltype(d)>;
      const ReplayResult run = replay(t, d);
      EXPECT_EQ(run.first_race, sr.error_index)
          << D::kName << " seed " << seed;
    });

    // Sync state, not just verdicts: the prefix before the Spec's first
    // error (the whole trace when race-free), through fresh detectors.
    const Trace prefix(t.begin(),
                       t.begin() + static_cast<std::ptrdiff_t>(
                                       sr.error_index.value_or(t.size())));
    prefix_ops += prefix.size();
    Spec prefix_spec;
    ASSERT_FALSE(replay_spec(prefix, prefix_spec).error_index.has_value());
    for_each_detector(nullptr, nullptr, [&](auto& d) {
      expect_sync_state_matches_spec(d, prefix, prefix_spec, seed);
    });
    Checked<VftV2> checked{VftV2(nullptr, nullptr)};
    expect_sync_state_matches_spec(checked, prefix, prefix_spec, seed);
  }
  EXPECT_GT(prefix_ops, 0u);
  std::cout << "[volatile-trace] sync state compared over " << prefix_ops
            << " prefix operations\n";
}

TEST(VolatileTrace, GeneratorEmitsVolatiles) {
  GeneratorConfig cfg;
  cfg.volatiles = 2;
  cfg.volatile_fraction = 0.6;
  cfg.sync_fraction = 0.5;
  cfg.ops = 300;
  cfg.seed = 3;
  const Trace t = generate(cfg);
  std::size_t vols = 0;
  for (const Op& op : t) {
    vols += op.kind == OpKind::kVolRead || op.kind == OpKind::kVolWrite;
  }
  EXPECT_GT(vols, 20u);
}

}  // namespace
}  // namespace vft::trace
