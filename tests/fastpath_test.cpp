// The header-inlined ABI fast path (src/abi/vft_abi_inline.h) against its
// two contracts:
//
//   equivalence  with the descriptor armed, every rule counter is
//                bit-identical to the out-of-line path (VFT_FASTPATH=off)
//                on the same deterministic workload, for all six
//                detectors, with sampling off and with the gate on at
//                rate=1 - the inline hit performs exactly the bumps the
//                packed-cell fast path would have performed, and
//                everything else falls through;
//   retraction   Session::reset() bumps the global generation, clears the
//                calling thread's descriptor, and withdraws the published
//                backend before it dies; a re-selected detector publishes
//                a backend whose descriptors carry the new generation,
//                and events flow again;
//   first event  with no backend published, the first event of any kind
//                (from a thread that never attached) creates it and is
//                itself analyzed - the backend is the only route;
//   one entry    ranges and the sized accesses covering the same words
//                produce identical rule counters: both land in the same
//                session entry, and the SIMD range prefix bumps exactly
//                the rules the scalar same-epoch hit does;
//   one verdict  the inline try, PackedCell::fast and the range scan's
//                prefix kernels all accept exactly the same-epoch cells,
//                sentinels and the ESCALATED/0@1 collision included.
//
// Tests share the process-global Session; each begins by reconfiguring
// the environment and resetting.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "abi/vft_abi.h"
#include "abi/vft_abi_inline.h"
#include "runtime/session.h"
#include "vft/fastpath_ctx.h"
#include "vft/packed_cell.h"
#include "vft/shadow_state.h"
#include "vft/stats.h"
#include "vft/vc_simd.h"

namespace {

using vft::Rule;
using vft::RuleStats;
using vft::rt::ambient::Session;

constexpr const char* kDetectors[] = {"v1",       "v1.5",   "v2",
                                      "ft-mutex", "ft-cas", "djit"};

/// Reconfigure the process-global session: detector, inline fast path
/// on/off, sampling spec (nullptr: off). Forces backend creation so the
/// environment is consumed, then zeroes the rule counters. A spec that
/// fails to parse falls back to sampling off with only a warning, so a
/// sampled leg asserts that the gate is really on.
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
  if (sampling != nullptr) {
    vft_sampling_stats_s st;
    ASSERT_EQ(vft_sampling_stats(&st), 1) << "gate off under '" << sampling
                                          << "'";
  }
}

/// Leave no fast-path/sampling environment behind for later binaries.
struct EnvGuard {
  ~EnvGuard() {
    unsetenv("VFT_FASTPATH");
    unsetenv("VFT_SAMPLING");
    unsetenv("VFT_BUDGET");
  }
} env_guard;

alignas(64) long g_buf[1024];
long g_lock_standin = 0;
alignas(16) long g_word[2] = {0, 0};
long g_atomic_standin = 0;

/// Deterministic mixed workload: repeated same-epoch hits (the inline
/// path's target), exclusive->shared read transitions via a forked
/// child, straddling accesses, SIMD-resolved ranges, and a sync edge.
/// Race-free by construction (fork/join order every cross-thread pair),
/// so every run produces the same counter vector.
void workload() {
  vft_attach();
  char* bytes = reinterpret_cast<char*>(g_buf);
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 128; ++i) vft_write8(&g_buf[i]);
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);   // same-epoch reads
    for (int i = 0; i < 128; ++i) vft_write8(&g_buf[i]);  // same-epoch writes
  }
  for (int i = 0; i < 64; ++i) vft_read4(bytes + 4 * i);
  for (int i = 0; i < 16; ++i) vft_write2(bytes + 512 * 8 + 2 * i);
  vft_read4(bytes + 6);    // straddles a shadow-word boundary
  vft_write4(bytes + 14);  // straddles a shadow-word boundary
  vft_range_write(bytes, 1024);
  vft_range_read(bytes, 1024);
  vft_range_read(bytes + 3, 733);  // unaligned, partial-word tail
  const uint64_t tok = vft_thread_create();
  std::thread child([tok] {
    vft_thread_begin(tok);
    // Ordered after the parent's writes by the fork edge: these flip the
    // first 128 words exclusive -> shared, no race.
    for (int i = 0; i < 128; ++i) vft_read8(&g_buf[i]);
    vft_mutex_lock(&g_lock_standin);
    vft_write8(&g_buf[512]);
    vft_mutex_unlock(&g_lock_standin);
    vft_detach();
  });
  child.join();
  vft_thread_join(tok);
  vft_mutex_lock(&g_lock_standin);
  vft_read8(&g_buf[512]);
  vft_mutex_unlock(&g_lock_standin);
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

TEST(FastpathDifferential, BitIdenticalRuleCountersAcrossDetectors) {
  // nullptr: sampling off (the inline cell path is live for spillable
  // detectors). rate=1: gate active, so the descriptor never arms.
  const char* kSampling[] = {nullptr, "rate=1"};
  for (const char* det : kDetectors) {
    for (const char* sampling : kSampling) {
      SCOPED_TRACE(std::string(det) + " / " +
                   (sampling != nullptr ? sampling : "sampling-off"));
      configure(det, /*inline_on=*/true, sampling);
      workload();
      const auto with_inline = snapshot();
      configure(det, /*inline_on=*/false, sampling);
      workload();
      const auto without_inline = snapshot();
      for (std::size_t i = 0; i < RuleStats::kN; ++i) {
        EXPECT_EQ(with_inline[i], without_inline[i])
            << vft::rule_name(static_cast<Rule>(i));
      }
      EXPECT_EQ(vft_race_count(), 0u);
    }
  }
}

TEST(Fastpath, DescriptorArmsAndResolvesHitsInline) {
  configure("v2", /*inline_on=*/true, nullptr);
  vft_attach();
  static long x = 0;
  vft_write8(&x);  // slow path: first event arms the descriptor
  ASSERT_NE(vft_tl_fastpath.gen, 0u);
  RuleStats& s = Session::instance().rule_stats();
  const std::uint64_t hits = s.count(Rule::kFastWriteHit);
  const std::uint64_t misses = s.count(Rule::kFastMiss);
  for (int i = 0; i < 100; ++i) vft_write8(&x);
  // Hits accrue as plain tallies in the descriptor; nothing is shared
  // until a slow-path entry or detach flushes them.
  EXPECT_EQ(vft_tl_fastpath.hit_writes, 100u);
  vft_detach();
  // vft_detach disarms the descriptor with the thread's registry slot,
  // crediting pending tallies on the way out: every repeat was a
  // same-epoch hit, and none fell out of line.
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);
  EXPECT_EQ(s.count(Rule::kFastWriteHit), hits + 100);
  EXPECT_EQ(s.count(Rule::kFastMiss), misses);
}

TEST(Fastpath, EnvKnobDisablesInlineArming) {
  configure("v2", /*inline_on=*/false, nullptr);
  vft_attach();
  static long z = 0;
  for (int i = 0; i < 10; ++i) vft_write8(&z);
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);  // never armed
  // The out-of-line packed-cell fast path still resolves the repeats.
  EXPECT_GE(Session::instance().rule_stats().count(Rule::kFastWriteHit), 9u);
  vft_detach();
}

TEST(Fastpath, ResetRetractsDescriptorAndBackend) {
  configure("v2", /*inline_on=*/true, nullptr);
  vft_attach();
  static long y = 0;
  vft_write8(&y);
  ASSERT_NE(Session::instance().live_backend(), nullptr);
  const std::uint64_t gen_before =
      __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE);
  EXPECT_EQ(vft_tl_fastpath.gen, gen_before);
  vft_detach();

  Session::instance().reset();
  // Retraction: thread descriptor cleared, global generation advanced,
  // published backend withdrawn - all before a new backend exists.
  EXPECT_EQ(vft_tl_fastpath.gen, 0u);
  EXPECT_GT(__atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE),
            gen_before);
  EXPECT_EQ(Session::instance().live_backend(), nullptr);

  // Re-select a different detector: the new backend arms descriptors with
  // the current generation and events flow end to end again.
  ASSERT_TRUE(Session::instance().configure("ft-cas"));
  vft_attach();
  vft_write8(&y);
  ASSERT_NE(Session::instance().live_backend(), nullptr);
  EXPECT_EQ(vft_tl_fastpath.gen,
            __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE));
  EXPECT_EQ(std::string(vft_detector_name()), "FT-CAS");
  vft_detach();
  Session::instance().configure("v2");
  Session::instance().reset();
}

TEST(Fastpath, FirstEventAfterResetIsAnalyzed) {
  struct Case {
    const char* name;
    void (*event)();
    Rule rule;
  };
  const Case kCases[] = {
      {"vft_atomic_fence", [] { vft_atomic_fence(5); }, Rule::kAtomicFence},
      {"vft_atomic_store", [] { vft_atomic_store(&g_atomic_standin, 5); },
       Rule::kAtomicStore},
      {"vft_range_write", [] { vft_range_write(&g_word[0], 8); },
       Rule::kWriteExclusive},
      {"vft_read8", [] { vft_read8(&g_word[0]); }, Rule::kReadExclusive},
  };
  unsetenv("VFT_FASTPATH");
  unsetenv("VFT_SAMPLING");
  unsetenv("VFT_BUDGET");
  ASSERT_TRUE(Session::instance().configure("v2"));
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    Session::instance().reset();
    ASSERT_EQ(Session::instance().live_backend(), nullptr);
    // A fresh OS thread that never called vft_attach: its first event is
    // also the session's first event since the reset.
    std::thread t([&c] {
      c.event();
      vft_detach();
    });
    t.join();
    EXPECT_NE(Session::instance().live_backend(), nullptr);
    EXPECT_GT(Session::instance().rule_stats().count(c.rule), 0u);
  }
  Session::instance().reset();
}

TEST(Fastpath, RangeMatchesSizedAccesses) {
  // One-word ranges, then two-word ranges whose first word is already in
  // this epoch: the SIMD prefix resolves it, the scalar path the second.
  auto range_leg = [] {
    vft_range_write(&g_word[0], 8);
    vft_range_read(&g_word[0], 8);
    vft_range_write(&g_word[0], 16);
    vft_range_read(&g_word[0], 16);
  };
  auto sized_leg = [] {
    vft_write8(&g_word[0]);
    vft_read8(&g_word[0]);
    vft_write8(&g_word[0]);  // same epoch
    vft_write8(&g_word[1]);
    vft_read8(&g_word[0]);  // same epoch
    vft_read8(&g_word[1]);
  };
  for (const char* det : kDetectors) {
    for (const bool inline_on : {true, false}) {
      SCOPED_TRACE(std::string(det) + (inline_on ? " / inline" : " / off"));
      // Each leg starts from a fresh session, so g_word is fresh shadow.
      configure(det, inline_on, nullptr);
      range_leg();
      vft_detach();  // credits any pending inline-hit tallies
      const auto via_range = snapshot();
      configure(det, inline_on, nullptr);
      sized_leg();
      vft_detach();
      const auto via_sized = snapshot();
      for (std::size_t i = 0; i < RuleStats::kN; ++i) {
        EXPECT_EQ(via_range[i], via_sized[i])
            << vft::rule_name(static_cast<Rule>(i));
      }
      EXPECT_GT(via_sized[static_cast<std::size_t>(Rule::kWriteSameEpoch)],
                0u);
    }
  }
  Session::instance().reset();
}

TEST(CellVerdict, EveryLayerAgreesAtTheCellEdges) {
  // R high, W low, spelled out here rather than taken from the contract.
  auto pack = [](std::uint32_t r, std::uint32_t w) {
    return (std::uint64_t{r} << 32) | w;
  };
  // 0@1 is ESCALATED's W half; 0@2 and 5@3 stay clear of both sentinels.
  vft::ThreadState t0_1(0), t0_2(0), t5_3(5);
  t0_2.inc();
  t5_3.inc();
  t5_3.inc();
  ASSERT_EQ(t0_1.epoch().bits(), 1u);
  ASSERT_EQ(vft::PackedCell::kEscalated, pack(0xFFFFFFFFu, 1));
  ASSERT_EQ(vft::PackedCell::kEscalating, pack(0xFFFFFFFFu, 0));
  const std::uint32_t o = vft::Epoch::make(7, 3).bits();  // another thread

  // A hand-armed descriptor over a private cell page. The try computes the
  // cell pointer from the target address and never dereferences it, so any
  // page-aligned address serves as the page's base.
  alignas(64) static std::uint64_t page[512];
  const std::uintptr_t base = std::uintptr_t{1} << 20;
  const void* addr = reinterpret_cast<const void*>(base + 3 * 8);

  for (vft::ThreadState* st : {&t0_1, &t0_2, &t5_3}) {
    const std::uint32_t e = st->epoch().bits();
    struct Row {
      const char* name;
      std::uint64_t cell;
      bool read_hit;   // [Read Same Epoch]
      bool write_hit;  // [Write Same Epoch]
    };
    const Row kRows[] = {
        {"bottom", 0, false, false},
        {"e in R", pack(e, o), true, false},
        {"e in W", pack(o, e), false, true},
        {"e in both", pack(e, e), true, true},
        {"other tid", pack(o, o), false, false},
        {"ESCALATING", vft::PackedCell::kEscalating, false, false},
        {"ESCALATED", vft::PackedCell::kEscalated, false, false},
    };
    for (const Row& row : kRows) {
      SCOPED_TRACE(std::string(row.name) + " at epoch bits " +
                   std::to_string(e));
      page[3] = row.cell;
      vft_tl_fastpath = vft_fastpath_s{};
      vft_tl_fastpath.gen =
          __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE);
      vft_tl_fastpath.epoch_addr = st->epoch_bits_addr();
      vft_tl_fastpath.page_base = base;
      vft_tl_fastpath.cells = page;
      EXPECT_EQ(vft_fastpath_try_read(addr, 8) == 1, row.read_hit);
      EXPECT_EQ(vft_fastpath_try_write(addr, 8) == 1, row.write_hit);
      vft_tl_fastpath = vft_fastpath_s{};

      for (const bool is_write : {false, true}) {
        vft::PackedCell cell;
        std::uint64_t cur = 0;
        while (!cell.cas_bits(cur, row.cell)) {
        }
        const vft::PackedCell::Fast f =
            is_write ? cell.fast<true>(*st) : cell.fast<false>(*st);
        EXPECT_EQ(f == vft::PackedCell::Fast::kSameEpoch,
                  is_write ? row.write_hit : row.read_hit)
            << (is_write ? "write" : "read");
      }

      EXPECT_EQ(vft::simd::cells_match_read_prefix(&row.cell, 1, e),
                row.read_hit ? 1u : 0u);
      EXPECT_EQ(vft::simd::cells_match_write_prefix(&row.cell, 1, e),
                row.write_hit ? 1u : 0u);
    }
  }
}

}  // namespace
