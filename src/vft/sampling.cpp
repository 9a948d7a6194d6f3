#include "vft/sampling.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "vft/event_ctx.h"  // vft_tl_event_ctx: caller PC for the adaptive key

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

// Shadow pages are 4 KiB of application address space in the two-level
// directory; the adaptive table keys on that granule.
constexpr std::uintptr_t kPageShift = 12;

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
        } else if (key == "adaptive") {
          if (val == "0" || val == "off") {
            cfg.adaptive = false;
          } else if (val == "1" || val == "on") {
            cfg.adaptive = true;
          } else {
            if (err) *err = "VFT_SAMPLING: adaptive must be 0|1, got '" + val + "'";
            return false;
          }
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
    std::snprintf(buf, sizeof(buf), "budget=%g%% rate0=%g adaptive=%d seed=%llu",
                  cfg.budget_pct, cfg.rate, cfg.adaptive ? 1 : 0,
                  static_cast<unsigned long long>(cfg.seed));
  } else {
    std::snprintf(buf, sizeof(buf), "rate=%g adaptive=%d seed=%llu", cfg.rate,
                  cfg.adaptive ? 1 : 0,
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
  for (auto& e : table_) e.store(0, std::memory_order_relaxed);
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

bool Gate::admit_slow(Tls& t, const void* addr) {
  if (t.gen != gen_) {
    // First access through this gate on this thread (or the gate was
    // replaced by a reset): seed the stream and start a fresh gap.
    t.gen = gen_;
    t.rng = mix64(cfg_.seed ^ reinterpret_cast<std::uintptr_t>(&t));
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
  // tally, draw the next gap, and give the adaptive table its say.
  credit_skips(t);
  draw_gap(t);

  // The controller window advances per slow-path entry, cooled-out or
  // not: both shapes cost admit_slow work, and a hot-page workload whose
  // sample points mostly cool out must still pace rate adjustments.
  if (cfg_.budget_pct > 0.0 &&
      window_samples_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          kAdjustWindow) {
    maybe_adjust();
  }

  if (cfg_.adaptive && cooled_out(t, addr)) {
    cooled_out_.fetch_add(1, std::memory_order_relaxed);
    skipped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  sampled_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// One adaptive entry per (shadow page, caller PC) pair. The packed word
// is tag(32) | level(8) | clean(24); CAS-free updates are fine because
// losing an increment only delays a cooldown.
bool Gate::cooled_out(Tls& t, const void* addr) {
  std::uintptr_t page = reinterpret_cast<std::uintptr_t>(addr) >> kPageShift;
  std::uintptr_t pc = reinterpret_cast<std::uintptr_t>(vft_tl_event_ctx.pc);
  std::uint64_t h = mix64(page ^ (pc << 1));
  std::size_t idx = static_cast<std::size_t>(h) & (kTableSize - 1);
  std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  if (tag == 0) tag = 1;  // tag 0 is the empty/hot marker

  std::uint64_t e = table_[idx].load(std::memory_order_relaxed);
  std::uint32_t etag = static_cast<std::uint32_t>(e >> 32);
  std::uint32_t level = static_cast<std::uint32_t>(e >> 24) & 0xff;
  std::uint32_t clean = static_cast<std::uint32_t>(e) & 0xffffff;

  if (etag != tag) {
    // Collision or first touch: claim the slot hot. Stealing resets the
    // previous key's cooldown, which only errs toward more sampling.
    table_[idx].store((static_cast<std::uint64_t>(tag) << 32) | 1,
                      std::memory_order_relaxed);
    return false;
  }

  if (level > 0) {
    // Pass this sample point with probability 2^-level.
    t.rng = mix64(t.rng);
    if ((t.rng & ((1u << level) - 1)) != 0) return true;
  }

  // The sample goes through; record one more clean observation.
  if (clean + 1 >= kCleanPerCool && level < kMaxCooldown) {
    ++level;
    clean = 0;
  } else {
    ++clean;
  }
  table_[idx].store((static_cast<std::uint64_t>(tag) << 32) |
                        (static_cast<std::uint64_t>(level) << 24) | clean,
                    std::memory_order_relaxed);
  return false;
}

void Gate::reheat(const void* addr) {
  std::uintptr_t page = reinterpret_cast<std::uintptr_t>(addr) >> kPageShift;
  std::uintptr_t pc = reinterpret_cast<std::uintptr_t>(vft_tl_event_ctx.pc);
  std::uint64_t h = mix64(page ^ (pc << 1));
  std::size_t idx = static_cast<std::size_t>(h) & (kTableSize - 1);
  std::uint64_t e = table_[idx].load(std::memory_order_relaxed);
  if (e != 0) {
    table_[idx].store(0, std::memory_order_relaxed);
    reheats_.fetch_add(1, std::memory_order_relaxed);
  }
  // The PC-qualified entry above may differ from the PC-free one other
  // threads (or non-interposed paths) hash to - cooled_out with pc==0
  // keys on mix64(page) - so clear that too.
  if (pc != 0) {
    std::uint64_t h2 = mix64(page);
    std::size_t idx2 = static_cast<std::size_t>(h2) & (kTableSize - 1);
    std::uint64_t e2 = table_[idx2].load(std::memory_order_relaxed);
    if (e2 != 0) {
      table_[idx2].store(0, std::memory_order_relaxed);
      reheats_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Gate::on_page_reset(const void* addr, std::size_t size) {
  std::uintptr_t first = reinterpret_cast<std::uintptr_t>(addr) >> kPageShift;
  std::uintptr_t last =
      (reinterpret_cast<std::uintptr_t>(addr) + (size ? size - 1 : 0)) >>
      kPageShift;
  // Bound the walk: a huge munmap can just flush the whole table.
  if (last - first >= kTableSize) {
    std::uint64_t cleared = 0;
    for (auto& e : table_) {
      if (e.exchange(0, std::memory_order_relaxed) != 0) ++cleared;
    }
    reheats_.fetch_add(cleared, std::memory_order_relaxed);
    return;
  }
  for (std::uintptr_t page = first; page <= last; ++page) {
    // Only the PC-free entry (cooled_out's key when no caller PC is
    // armed) is addressable from here - the freeing call site's PC is
    // unrelated to the accessors'. PC-qualified entries covering a
    // recycled page self-heal via the tag check.
    std::uint64_t h = mix64(page);
    std::size_t idx = static_cast<std::size_t>(h) & (kTableSize - 1);
    std::uint64_t e = table_[idx].load(std::memory_order_relaxed);
    if (e != 0) {
      table_[idx].store(0, std::memory_order_relaxed);
      reheats_.fetch_add(1, std::memory_order_relaxed);
    }
  }
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
  s.cooled_out = cooled_out_.load(std::memory_order_relaxed);
  s.reheats = reheats_.load(std::memory_order_relaxed);
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
