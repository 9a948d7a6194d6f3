// Per-access sampling: the always-on production mode's admission gate.
//
// FastTrack-style analysis pays a detector call (or at least a packed-cell
// fast path) on *every* access; under production traffic that tax is the
// difference between a test tool and a mode you can leave on. Following
// the sampling line of work ("Efficient Timestamping for Sampling-based
// Race Detection" - see PAPERS.md), this layer samples only a fraction of
// memory accesses at a uniform random rate while keeping every
// synchronization event (locks, fork/join, volatiles, barriers) exactly
// tracked, so vector clocks stay precise for the accesses that *are*
// analyzed. A sampled-out access updates only its 64-bit packed shadow
// cell: last-access metadata stays fresh, so a later sampled access still
// races against it. It never spills, escalates, or touches a VarState.
//
// Two cooperating mechanisms (docs/ALGORITHM.md s14):
//
//   Gate        a branch-cheap per-thread geometric countdown: skip the
//               next G accesses, where G is drawn from the geometric
//               distribution matching the current global rate. The hot
//               path is one TLS decrement and one predictable branch; the
//               slow path (once per sample point) flushes the skip tally,
//               re-draws the gap, paces the controller, and counts the
//               sample.
//
//   Controller  VFT_BUDGET=5 (percent): times every 64th sampled access,
//               subtracts the calibrated timer floor, extrapolates the
//               detector's self-time against process CPU time, and
//               multiplies the global rate toward the budget every
//               adjustment window.
//
// Exactness anchor: with rate=1.0 and no budget the gate admits every
// access and the analysis is bit-identical to the ungated packed-cell
// path (tests/sampling_test.cpp holds this as a differential invariant).
//
// Configuration (read once at session-backend creation):
//   VFT_SAMPLING  "on" | "off" | comma list of key=value:
//                 rate=0.02,seed=7 (any key implies "on")
//   VFT_BUDGET    target overhead percent, e.g. "5" or "5%"; implies
//                 sampling on with the controller driving the rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace vft::sampling {

struct Config {
  bool enabled = false;
  double rate = 1.0;        ///< initial global sampling rate (0, 1]
  double budget_pct = 0.0;  ///< target overhead percent; 0: controller off
  std::uint64_t seed = 1;   ///< RNG seed; each thread mixes in its epoch
};

/// Parse the VFT_SAMPLING/VFT_BUDGET pair (either may be null/empty).
/// Returns false and fills *err on a malformed spec; *out is then
/// untouched. An empty pair parses to Config{.enabled = false}.
bool parse_config(const char* sampling_spec, const char* budget_spec,
                  Config* out, std::string* err);

/// parse_config over getenv("VFT_SAMPLING")/getenv("VFT_BUDGET");
/// malformed specs warn on stderr and fall back to sampling-off (a bad
/// knob must not change a production target's behavior beyond full
/// tracking).
Config config_from_env();

/// "rate=0.0213 seed=1" - the effective-config line for run banners and
/// logs.
std::string describe(const Config& cfg);

/// Monotone counter snapshot of one gate's lifetime (relaxed reads; the
/// integer fields are what the report merge sums).
struct Stats {
  std::uint64_t sampled = 0;       ///< accesses admitted to the analysis
  std::uint64_t skipped = 0;       ///< accesses gated out
  std::uint64_t overhead_ns = 0;   ///< extrapolated detector self-time
  std::uint64_t busy_ns = 0;       ///< process CPU time since gate creation
  std::uint64_t adjustments = 0;   ///< controller windows applied
  double rate = 1.0;               ///< current global rate
  double overhead_pct = 0.0;       ///< overhead_ns / busy_ns, percent
};

/// The sampling gate. The Session owns it beside the backend it gates:
/// built before the backend, destroyed after it. Threads hold no pointer
/// to it - only the generation tag in their thread-local countdown.
class Gate {
 public:
  explicit Gate(const Config& cfg);

  const Config& config() const { return cfg_; }

  /// The admission decision for one access (or one range event), with a
  /// controller probe token. Hot path (mid-gap skip): one thread-local
  /// decrement plus one branch, never probed - the cheap skip is the
  /// always-on floor the controller does not regulate. Every
  /// kProbeEvery-th *slow-path entry* (sample point) opens a probe BEFORE
  /// admit_slow runs, so the measured cost covers the gate's own
  /// bookkeeping (gap draw, counters) plus whatever detector work the
  /// caller brackets - the real marginal cost of raising the rate. The
  /// caller must pass the token to time_end() after the access completes
  /// (0 token: no-op).
  ///
  /// `epoch_bits` points at the calling thread's current epoch; only the
  /// thread's first access through this gate reads it, to seed the
  /// thread's stream (see admit_slow).
  bool should_sample(std::uint64_t* probe, const std::uint32_t* epoch_bits) {
    Tls& t = tls();
    if (t.gen == gen_ && t.countdown > 0) {
      --t.countdown;
      ++t.skipped;
      return false;
    }
    if (cfg_.budget_pct > 0.0 &&
        (++t.sampled_since_probe & (kProbeEvery - 1)) == 0) {
      *probe = now_ns() | 1;  // |1: a 0 reading must not read as "no probe"
    }
    return admit_slow(t, epoch_bits);
  }

  void time_end(std::uint64_t token);

  /// Credit the calling thread's pending skip tally to the shared
  /// counter. A tally otherwise flushes only at the thread's next sample
  /// point, so a thread that ends mid-gap calls this on its way out.
  void flush_skips() {
    Tls& t = tls();
    if (t.gen == gen_) credit_skips(t);
  }

  Stats snapshot() const;

 private:
  static constexpr std::uint32_t kRateOne = 1u << 20;  ///< fixed-point 1.0
  static constexpr std::uint64_t kProbeEvery = 64;     ///< controller probe period
  static constexpr std::uint64_t kAdjustWindow = 4096; ///< samples per rate step
  static constexpr std::uint64_t kProbeOutlierNs = 32'000;  ///< discard preempted probes
  static constexpr double kMinRate = 1.0 / 4096.0;     ///< controller floor

  struct Tls {
    std::uint64_t gen = 0;        ///< owning gate's generation
    std::uint64_t countdown = 0;  ///< accesses left to skip
    std::uint64_t rng = 0;
    std::uint64_t skipped = 0;    ///< pending flush to the global counter
    std::uint64_t sampled_since_probe = 0;
  };
  static Tls& tls() {
    static thread_local Tls t;
    return t;
  }

  static std::uint64_t now_ns();
  /// CLOCK_PROCESS_CPUTIME_ID: the controller's denominator. Overhead is
  /// "detector CPU per target CPU", so descheduled time must advance
  /// neither side - wall time would dilute the measurement on a loaded
  /// machine and the controller would open the rate against a phantom
  /// budget. Syscall-priced, so only touched at window/snapshot edges.
  static std::uint64_t cpu_now_ns();

  bool admit_slow(Tls& t, const std::uint32_t* epoch_bits);
  void credit_skips(Tls& t) {
    if (t.skipped > 0) {
      skipped_.fetch_add(t.skipped, std::memory_order_relaxed);
      t.skipped = 0;
    }
  }
  void draw_gap(Tls& t);
  void maybe_adjust();
  void calibrate();

  const Config cfg_;
  const std::uint64_t gen_;  ///< unique per gate; stale TLS re-syncs
  std::atomic<std::uint32_t> rate_fp_;  ///< current rate * kRateOne

  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<std::uint64_t> overhead_ns_{0};
  std::atomic<std::uint64_t> window_overhead_ns_{0};
  std::atomic<std::uint64_t> window_samples_{0};
  std::atomic<std::uint64_t> window_start_ns_{0};
  std::atomic<std::uint64_t> adjustments_{0};
  std::uint64_t start_ns_ = 0;
  double timer_floor_ns_ = 0.0;
};

}  // namespace vft::sampling
