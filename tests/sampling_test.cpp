// The always-on sampling layer (src/vft/sampling.h) end to end through
// the C ABI and the ambient session, against its four contract points:
//
//   exactness   rate=1.0 is bit-identical to the ungated detector on
//               every detector rule count (the gate may only *remove*
//               work, and at full rate it removes none);
//   recall      a racy program is detected within a bounded number of
//               seeded runs - immediately at the default budget (the
//               controller starts at full rate), and within a geometric
//               bound at a fixed partial rate;
//   precision   sampling never *adds* races: race-free workloads stay
//               silent at any rate (sampled-out accesses only skip
//               checks, never fabricate state);
//   budget      the target-overhead controller's measured overhead
//               converges into +-2 points of VFT_BUDGET on a sustained
//               workload, with the rate throttled below 1.
//
// Plus the config grammar, the skip accounting of threads that end
// mid-gap, and the report/stats plumbing the `vft run` banner scrapes.
//
// Tests share the process-global Session; each reconfigures sampling via
// the environment and reset() (the gate is re-read from VFT_SAMPLING /
// VFT_BUDGET on every backend creation).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abi/vft_abi.h"
#include "runtime/session.h"
#include "vft/report_io.h"
#include "vft/sampling.h"
#include "vft/stats.h"

namespace {

using vft::Rule;
using vft::rt::ambient::Session;

/// Reconfigure the process-global session's sampling from scratch.
/// nullptr spec/budget unsets the variable. A spec that fails to parse
/// falls back to sampling off with only a warning, so a leg that sets
/// either variable asserts that the gate is really on.
void configure_sampling(const char* spec, const char* budget = nullptr) {
  if (spec != nullptr) {
    setenv("VFT_SAMPLING", spec, 1);
  } else {
    unsetenv("VFT_SAMPLING");
  }
  if (budget != nullptr) {
    setenv("VFT_BUDGET", budget, 1);
  } else {
    unsetenv("VFT_BUDGET");
  }
  Session::instance().configure("v2");
  Session::instance().reset();
  Session::instance().backend();  // force creation: builds the gate
  Session::instance().rule_stats().reset();
  if (spec != nullptr || budget != nullptr) {
    ASSERT_NE(Session::instance().gate(), nullptr)
        << "gate off under VFT_SAMPLING='" << (spec ? spec : "")
        << "' VFT_BUDGET='" << (budget ? budget : "") << "'";
  }
}

/// Leave no sampling environment behind for later test binaries.
struct EnvGuard {
  ~EnvGuard() {
    unsetenv("VFT_SAMPLING");
    unsetenv("VFT_BUDGET");
  }
};

/// Two implicitly-attached threads whose slots are simultaneously live
/// (abi_test's idiom): each runs `body(step)`, signals, and spins until
/// the other signalled before detaching.
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

/// A deterministic mixed workload: a private same-epoch sweep, a range
/// write, a lock-ordered handoff (no race), and one deterministic
/// write-write race (writer order fixed by a raw flag, which is not an
/// instrumented sync event).
struct Workload {
  std::vector<std::uint64_t> buf = std::vector<std::uint64_t>(512, 1);
  long shared_locked = 0;
  long racy = 0;
  int mutex_tag = 0;  // only its address is named to the ABI

  void run() {
    for (const std::uint64_t& w : buf) vft_write8(&w);
    for (int pass = 0; pass < 4; ++pass) {
      for (const std::uint64_t& w : buf) vft_read8(&w);
    }
    vft_range_write(buf.data(), buf.size() * sizeof(buf[0]));

    std::atomic<bool> first_done{false};
    run_concurrent_pair([&](int who) {
      if (who == 0) {
        vft_mutex_lock(&mutex_tag);
        vft_write8(&shared_locked);
        vft_mutex_unlock(&mutex_tag);
        vft_write8(&racy);
        first_done.store(true, std::memory_order_release);
      } else {
        while (!first_done.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        vft_mutex_lock(&mutex_tag);
        vft_write8(&shared_locked);
        vft_mutex_unlock(&mutex_tag);
        vft_write8(&racy);  // racy: no edge orders this after who==0's
      }
    });
  }
};

/// Detector + sync rule counts (everything through kBarrier; the kFast*
/// and kSampledOut diagnostics are accounted separately by design).
std::vector<std::uint64_t> detector_rule_counts() {
  std::vector<std::uint64_t> v;
  for (std::size_t i = 0; i <= static_cast<std::size_t>(Rule::kBarrier); ++i) {
    v.push_back(
        Session::instance().rule_stats().count(static_cast<Rule>(i)));
  }
  return v;
}

// ---------------------------------------------------------------------
// Config grammar.
// ---------------------------------------------------------------------

TEST(SamplingConfig, ParsesKeysAndImpliesEnabled) {
  vft::sampling::Config c;
  std::string err;
  ASSERT_TRUE(vft::sampling::parse_config("rate=0.25,seed=9",
                                          nullptr, &c, &err))
      << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.rate, 0.25);
  EXPECT_EQ(c.seed, 9u);
}

TEST(SamplingConfig, BudgetAloneEnablesAndParsesPercent) {
  vft::sampling::Config c;
  std::string err;
  ASSERT_TRUE(vft::sampling::parse_config(nullptr, "5%", &c, &err)) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.budget_pct, 5.0);
}

TEST(SamplingConfig, OffWinsOverBudget) {
  vft::sampling::Config c;
  std::string err;
  ASSERT_TRUE(vft::sampling::parse_config("off", "5", &c, &err)) << err;
  EXPECT_FALSE(c.enabled);
}

TEST(SamplingConfig, MalformedSpecIsAnError) {
  vft::sampling::Config c;
  std::string err;
  EXPECT_FALSE(vft::sampling::parse_config("bogus=1", nullptr, &c, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(
      vft::sampling::parse_config("rate=nope", nullptr, &c, &err));
  // Retired keys: one sampled-out policy, the budget has one spelling
  // (VFT_BUDGET), and the rate is uniform (no adaptive cooldown table).
  for (const char* spec : {"policy=cell", "policy=drop", "budget=5",
                           "adaptive=0", "adaptive=1"}) {
    err.clear();
    EXPECT_FALSE(vft::sampling::parse_config(spec, nullptr, &c, &err))
        << spec;
    EXPECT_NE(err.find("unknown key"), std::string::npos) << spec << ": " << err;
  }
}

// ---------------------------------------------------------------------
// (i) rate=1.0 differential exactness.
// ---------------------------------------------------------------------

TEST(Sampling, RateOneIsBitIdenticalToNoGateOnDetectorRules) {
  EnvGuard guard;

  configure_sampling(nullptr);
  ASSERT_EQ(Session::instance().gate(), nullptr);
  {
    Workload w;
    w.run();
  }
  const auto baseline = detector_rule_counts();
  const auto baseline_races = vft_race_count();
  EXPECT_GE(baseline_races, 1u);

  configure_sampling("rate=1");
  {
    Workload w;
    w.run();
  }
  const auto gated = detector_rule_counts();
  ASSERT_EQ(gated.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(gated[i], baseline[i])
        << "rule " << vft::rule_name(static_cast<Rule>(i));
  }
  EXPECT_EQ(Session::instance().rule_stats().count(Rule::kSampledOut), 0u);
  EXPECT_EQ(vft_race_count(), baseline_races);
}

// ---------------------------------------------------------------------
// (ii) racy programs detected within a seeded-run bound.
// ---------------------------------------------------------------------

/// One run of an 8-variable write-write race with deterministic writer
/// order. Returns the number of races the session saw.
std::uint64_t run_race_batch() {
  static long vars[8];
  std::atomic<bool> first_done{false};
  run_concurrent_pair([&](int who) {
    if (who == 0) {
      for (long& v : vars) vft_write8(&v);
      first_done.store(true, std::memory_order_release);
    } else {
      while (!first_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (long& v : vars) vft_write8(&v);
    }
  });
  return vft_race_count();
}

TEST(Sampling, RacyDetectedImmediatelyAtDefaultBudget) {
  EnvGuard guard;
  // Default-budget deployment shape: the controller starts at full rate,
  // so a race near startup is caught in the very first seeded run.
  int detected_at = -1;
  for (int seed = 0; seed < 8; ++seed) {
    configure_sampling(("seed=" + std::to_string(seed)).c_str(), "5");
    if (run_race_batch() > 0) {
      detected_at = seed;
      break;
    }
  }
  EXPECT_EQ(detected_at, 0);
}

TEST(Sampling, RacyDetectedWithinSeededRunsAtPartialRate) {
  EnvGuard guard;
  // Fixed quarter rate: each racy write is admitted with p=1/4
  // independently, so one 8-variable batch detects with
  // p ~= 1 - 0.75^8 ~= 0.9 and ten seeds leave a ~1e-10 miss chance.
  int detected_at = -1;
  for (int seed = 0; seed < 10; ++seed) {
    configure_sampling(
        ("rate=0.25,seed=" + std::to_string(seed)).c_str());
    if (run_race_batch() > 0) {
      detected_at = seed;
      break;
    }
  }
  EXPECT_GE(detected_at, 0) << "no race found in 10 seeded quarter-rate runs";
}

// ---------------------------------------------------------------------
// (iii) race-free workloads stay silent at any rate.
// ---------------------------------------------------------------------

TEST(Sampling, NoRaceWorkloadSilentUnderSampling) {
  EnvGuard guard;
  for (const char* spec :
       {"rate=0.5,seed=1", "rate=0.5,seed=2", "rate=0.01,seed=3"}) {
    configure_sampling(spec);
    // Disjoint per-thread sweeps plus a lock-ordered shared counter. The
    // ABI lock hooks fire inside a *held* real mutex (the contract: the
    // hook runs after the native acquire / before the native release, so
    // the caller's lock is what serializes the LockState update).
    static long shared_counter = 0;
    static std::mutex real_mu;
    run_concurrent_pair([&](int who) {
      static long lanes[2][256];
      for (long& v : lanes[who]) {
        vft_write8(&v);
        vft_read8(&v);
      }
      for (int i = 0; i < 64; ++i) {
        real_mu.lock();
        vft_mutex_lock(&real_mu);
        vft_write8(&shared_counter);
        vft_mutex_unlock(&real_mu);
        real_mu.unlock();
      }
    });
    EXPECT_EQ(vft_race_count(), 0u) << spec;
  }
}

// ---------------------------------------------------------------------
// (iv) the controller holds the budget.
// ---------------------------------------------------------------------

TEST(Sampling, ControllerConvergesToBudget) {
  EnvGuard guard;
  configure_sampling("seed=3", "5");

  std::vector<std::uint64_t> buf(4096, 1);
  for (const std::uint64_t& w : buf) vft_write8(&w);
  // Sustained same-epoch sweep: long enough that the full-rate startup
  // transient (the windows before the controller throttles) is a small
  // share of the cumulative overhead the snapshot averages over.
  for (int pass = 0; pass < 2048; ++pass) {
    for (const std::uint64_t& w : buf) vft_read8(&w);
  }

  vft_sampling_stats_s st;
  ASSERT_EQ(vft_sampling_stats(&st), 1);
  EXPECT_GT(st.adjustments, 4u) << "controller never stepped";
  EXPECT_LT(st.rate, 1.0) << "pure-detector sweep must throttle";
  EXPECT_NEAR(st.overhead_pct, 5.0, 2.0)
      << "sampled=" << st.sampled << " skipped=" << st.skipped
      << " rate=" << st.rate;
  EXPECT_GT(st.skipped, st.sampled) << "throttled run should skip most";
}

// ---------------------------------------------------------------------
// Stats / report plumbing.
// ---------------------------------------------------------------------

TEST(Sampling, StatsAbiDisabledAndEnabled) {
  EnvGuard guard;
  configure_sampling(nullptr);
  vft_sampling_stats_s st;
  EXPECT_EQ(vft_sampling_stats(&st), 0);
  EXPECT_EQ(st.sampled, 0u);
  EXPECT_STREQ(vft_sampling_describe(), "off");

  configure_sampling("rate=0.5,seed=4");
  static long x = 0;
  for (int i = 0; i < 1000; ++i) vft_read8(&x);
  ASSERT_EQ(vft_sampling_stats(&st), 1);
  EXPECT_GT(st.sampled + st.skipped, 0u);
  const std::string desc = vft_sampling_describe();
  EXPECT_NE(desc.find("rate=0.5"), std::string::npos) << desc;
  EXPECT_EQ(desc.find("policy"), std::string::npos) << desc;
}

TEST(Sampling, ThreadsEndingMidGapKeepTheirSkips) {
  EnvGuard guard;
  // Each thread counts its skips in a thread-local tally that otherwise
  // reaches the shared counter only at its next sample point; at rate
  // 0.01 every thread ends mid-gap, so detach must flush the remainder.
  configure_sampling("rate=0.01,seed=3");
  constexpr int kThreads = 4;
  constexpr int kReads = 1000;
  static long lanes[kThreads];
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] {
      for (int r = 0; r < kReads; ++r) vft_read8(&lanes[i]);
      vft_detach();
    });
  }
  for (std::thread& t : threads) t.join();
  vft_sampling_stats_s st;
  ASSERT_EQ(vft_sampling_stats(&st), 1);
  EXPECT_EQ(st.sampled + st.skipped,
            static_cast<std::uint64_t>(kThreads) * kReads)
      << "sampled=" << st.sampled << " skipped=" << st.skipped;
}

TEST(Sampling, ReportCarriesSamplingBlockOnlyWhenEnabled) {
  EnvGuard guard;
  configure_sampling(nullptr);
  static long x = 0;
  vft_write8(&x);
  std::string off =
      vft::reportio::render_json(Session::instance().report_doc());
  EXPECT_EQ(off.find("\"sampling\""), std::string::npos);

  configure_sampling("rate=0.5,seed=8");
  vft_write8(&x);
  std::string on =
      vft::reportio::render_json(Session::instance().report_doc());
  EXPECT_NE(on.find("\"sampling\""), std::string::npos);
  EXPECT_NE(on.find("\"rate0\": 0.5"), std::string::npos) << on;
  EXPECT_EQ(on.find("\"policy\""), std::string::npos) << on;
  EXPECT_NE(on.find("\"achieved_rate\""), std::string::npos);
}

}  // namespace
