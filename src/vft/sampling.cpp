#include "vft/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace vft::sampling {
namespace {

// splitmix64: the step function for both the seed expansion and the
// per-thread stream (each thread's stream starts at seed ^ its TLS
// address, so threads decorrelate without coordination).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_config(const char* sampling_spec, const char* budget_spec,
                  Config* out, std::string* err) {
  Config cfg;

  if (budget_spec != nullptr && budget_spec[0] != '\0') {
    std::string b = budget_spec;
    if (!b.empty() && b.back() == '%') b.pop_back();
    double pct = 0.0;
    if (!parse_double(b.c_str(), &pct) || pct <= 0.0 || pct > 100.0) {
      if (err) *err = "VFT_BUDGET: expected a percent in (0, 100], got '" +
                      std::string(budget_spec) + "'";
      return false;
    }
    cfg.enabled = true;
    cfg.budget_pct = pct;
  }

  if (sampling_spec != nullptr && sampling_spec[0] != '\0') {
    std::string spec = sampling_spec;
    if (spec == "off" || spec == "0") {
      // Explicit off wins over VFT_BUDGET: one knob to disable everything.
      *out = Config{};
      return true;
    }
    cfg.enabled = true;
    if (spec != "on" && spec != "1") {
      std::size_t pos = 0;
      while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        std::string kv = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (kv.empty()) continue;
        std::size_t eq = kv.find('=');
        std::string key = kv.substr(0, eq);
        std::string val = eq == std::string::npos ? "" : kv.substr(eq + 1);
        if (key == "rate") {
          double r = 0.0;
          if (!parse_double(val.c_str(), &r) || r <= 0.0 || r > 1.0) {
            if (err) *err = "VFT_SAMPLING: rate must be in (0, 1], got '" + val + "'";
            return false;
          }
          cfg.rate = r;
        } else if (key == "seed") {
          std::uint64_t s = 0;
          if (!parse_u64(val.c_str(), &s)) {
            if (err) *err = "VFT_SAMPLING: seed must be an integer, got '" + val + "'";
            return false;
          }
          cfg.seed = s;
        } else {
          if (err) *err = "VFT_SAMPLING: unknown key '" + key + "'";
          return false;
        }
      }
    }
  }

  *out = cfg;
  return true;
}

Config config_from_env() {
  Config cfg;
  std::string err;
  if (!parse_config(std::getenv("VFT_SAMPLING"), std::getenv("VFT_BUDGET"),
                    &cfg, &err)) {
    std::fprintf(stderr, "vft: %s; sampling disabled\n", err.c_str());
    return Config{};
  }
  return cfg;
}

std::string describe(const Config& cfg) {
  if (!cfg.enabled) return "off";
  char buf[160];
  if (cfg.budget_pct > 0.0) {
    std::snprintf(buf, sizeof(buf), "budget=%g%% rate0=%g seed=%llu",
                  cfg.budget_pct, cfg.rate,
                  static_cast<unsigned long long>(cfg.seed));
  } else {
    std::snprintf(buf, sizeof(buf), "rate=%g seed=%llu", cfg.rate,
                  static_cast<unsigned long long>(cfg.seed));
  }
  return buf;
}

std::uint64_t Gate::now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t Gate::cpu_now_ns() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Gate::Gate(const Config& cfg)
    : cfg_(cfg),
      gen_(mix64(reinterpret_cast<std::uintptr_t>(this)) ^ now_ns()),
      rate_fp_(static_cast<std::uint32_t>(
          cfg.rate >= 1.0 ? kRateOne
                          : std::max(1.0, cfg.rate * kRateOne))) {
  start_ns_ = cpu_now_ns();
  window_start_ns_.store(start_ns_, std::memory_order_relaxed);
  if (cfg_.budget_pct > 0.0) calibrate();
}

// Measure the cost of a clock_gettime pair so controller probes charge
// the detector only for work beyond the timer's own floor.
void Gate::calibrate() {
  constexpr int kTrials = 256;
  std::uint64_t best = ~0ull;
  for (int i = 0; i < kTrials; ++i) {
    std::uint64_t a = now_ns();
    std::uint64_t b = now_ns();
    if (b - a < best) best = b - a;
  }
  timer_floor_ns_ = static_cast<double>(best);
}

// Draw the next geometric gap: G ~ floor(ln(u) / ln(1 - p)) accesses are
// skipped before the next sample. The cheap approximation -ln(u)/p is
// exact in the small-p regime sampling lives in and within a few percent
// even near p=1 (where the gap rounds to 0 anyway).
void Gate::draw_gap(Tls& t) {
  std::uint32_t fp = rate_fp_.load(std::memory_order_relaxed);
  if (fp >= kRateOne) {
    t.countdown = 0;
    return;
  }
  t.rng = mix64(t.rng);
  // u uniform in (0, 1]: never 0, so log() is safe.
  double u = (static_cast<double>(t.rng >> 11) + 1.0) * 0x1.0p-53;
  double p = static_cast<double>(fp) / kRateOne;
  double gap = -std::log(u) / p;
  t.countdown = gap >= 1e18 ? static_cast<std::uint64_t>(1e18)
                            : static_cast<std::uint64_t>(gap);
}

bool Gate::admit_slow(Tls& t, const std::uint32_t* epoch_bits) {
  if (t.gen != gen_) {
    // First access through this gate on this thread (or the gate was
    // replaced by a reset): seed the stream and start a fresh gap. The
    // thread's epoch at this access repeats across runs of a
    // deterministic program, and no two threads of a run share it - a
    // successor on a reused tid slot continues its predecessor's clock -
    // so streams repeat per seed and stay distinct per thread.
    t.gen = gen_;
    t.rng = mix64(cfg_.seed ^ *epoch_bits);
    t.skipped = 0;
    t.sampled_since_probe = 0;
    draw_gap(t);
    if (t.countdown > 0) {
      --t.countdown;
      ++t.skipped;
      return false;
    }
  }

  // Countdown expired: this access is a sample point. Flush the skip
  // tally, draw the next gap, pace the controller, count the sample.
  credit_skips(t);
  draw_gap(t);
  if (cfg_.budget_pct > 0.0 &&
      window_samples_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          kAdjustWindow) {
    maybe_adjust();
  }
  sampled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Gate::time_end(std::uint64_t token) {
  if (token == 0) return;
  std::uint64_t dt = now_ns() - (token & ~1ull);
  // A probe brackets one gate slow path plus one access's analysis - tens
  // of nanoseconds, low microseconds at the very worst (debug build, full
  // vector-clock join). A dt beyond that is the thread getting preempted
  // or page-faulting mid-probe; charging scheduler time x kProbeEvery as
  // "detector overhead" once per timeslice poisons the cumulative stat on
  // a loaded machine. Treat such probes as lost, not as evidence.
  if (dt >= kProbeOutlierNs) return;
  double extra = static_cast<double>(dt) - timer_floor_ns_;
  if (extra < 0.0) extra = 0.0;
  // One probe stands in for kProbeEvery sampled accesses.
  std::uint64_t charged = static_cast<std::uint64_t>(extra * kProbeEvery);
  overhead_ns_.fetch_add(charged, std::memory_order_relaxed);
  window_overhead_ns_.fetch_add(charged, std::memory_order_relaxed);
}

// One controller step: compare the window's measured overhead against the
// budget and scale the rate multiplicatively (clamped to [1/2, 2] per
// step so a noisy window can't crater the rate). The denominator is
// process CPU time, not wall time - on a loaded machine descheduled
// intervals stretch wall but cost the target nothing, and a controller
// dividing by wall would conclude the detector is nearly free and open
// the rate far past the budget.
void Gate::maybe_adjust() {
  std::uint64_t t0 = window_start_ns_.load(std::memory_order_relaxed);
  std::uint64_t t1 = cpu_now_ns();
  if (t1 <= t0) return;
  // Claim the window; losing racers fold into the next one.
  if (!window_start_ns_.compare_exchange_strong(t0, t1,
                                               std::memory_order_relaxed)) {
    return;
  }
  std::uint64_t over = window_overhead_ns_.exchange(0, std::memory_order_relaxed);
  window_samples_.store(0, std::memory_order_relaxed);

  double busy = static_cast<double>(t1 - t0);
  double measured_pct = 100.0 * static_cast<double>(over) / busy;
  std::uint32_t fp = rate_fp_.load(std::memory_order_relaxed);
  double rate = static_cast<double>(fp) / kRateOne;
  double factor;
  if (measured_pct <= 0.0) {
    factor = 2.0;  // no measurable cost: open up
  } else {
    factor = cfg_.budget_pct / measured_pct;
    if (factor < 0.5) factor = 0.5;
    if (factor > 2.0) factor = 2.0;
  }
  rate *= factor;
  if (rate > 1.0) rate = 1.0;
  if (rate < kMinRate) rate = kMinRate;
  rate_fp_.store(
      static_cast<std::uint32_t>(std::max(1.0, rate * kRateOne)),
      std::memory_order_relaxed);
  adjustments_.fetch_add(1, std::memory_order_relaxed);
}

Stats Gate::snapshot() const {
  Stats s;
  s.sampled = sampled_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  s.overhead_ns = overhead_ns_.load(std::memory_order_relaxed);
  s.busy_ns = cpu_now_ns() - start_ns_;
  s.adjustments = adjustments_.load(std::memory_order_relaxed);
  s.rate = static_cast<double>(rate_fp_.load(std::memory_order_relaxed)) /
           kRateOne;
  s.overhead_pct = s.busy_ns > 0
                       ? 100.0 * static_cast<double>(s.overhead_ns) /
                             static_cast<double>(s.busy_ns)
                       : 0.0;
  return s;
}

}  // namespace vft::sampling
