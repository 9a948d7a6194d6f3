// Per-access sampling: the always-on production mode's admission gate.
//
// FastTrack-style analysis pays a detector call (or at least a packed-cell
// fast path) on *every* access; under production traffic that tax is the
// difference between a test tool and a mode you can leave on. Following
// the sampling line of work (LiteRace's cold-region decay, "Efficient
// Timestamping for Sampling-based Race Detection" - see PAPERS.md), this
// layer samples only a fraction of memory accesses while keeping every
// synchronization event (locks, fork/join, volatiles, barriers) exactly
// tracked, so vector clocks stay precise for the accesses that *are*
// analyzed. A sampled-out access either updates only the 64-bit packed
// shadow cell (policy `cell`: last-access metadata stays fresh, so a later
// sampled access still races against it) or touches nothing at all
// (policy `drop`: the ABI entry point returns before even the session
// dispatch). Neither ever spills, escalates, or touches a VarState.
//
// Three cooperating mechanisms (docs/ALGORITHM.md s14):
//
//   Gate        a branch-cheap per-thread geometric countdown: skip the
//               next G accesses, where G is drawn from the geometric
//               distribution matching the current global rate. The hot
//               path is one TLS decrement and one predictable branch; the
//               slow path (once per sampled access) re-draws the gap,
//               flushes counters, and consults the adaptive table.
//
//   Adaptive    a small fixed-size table keyed by shadow-page base XOR the
//   table       caller PC (when the interposer's event ctx is armed):
//               regions that stay race-free across many samples cool down
//               (each cooldown level halves their effective rate), and
//               re-heat to full rate on first spill, first race report, or
//               page reset (free/munmap) - LiteRace-style burst decay.
//
//   Controller  VFT_BUDGET=5 (percent): times every 64th sampled access,
//               subtracts the calibrated timer floor, extrapolates the
//               detector's self-time against wall time, and multiplies the
//               global rate toward the budget every adjustment window.
//
// Exactness anchor: with rate=1.0, no budget, and the adaptive table off,
// the gate admits every access and the analysis is bit-identical to the
// ungated packed-cell path (tests/sampling_test.cpp holds this as a
// differential invariant).
//
// Configuration (read once at session-backend creation):
//   VFT_SAMPLING  "on" | "off" | comma list of key=value:
//                 rate=0.02 policy=cell|drop adaptive=0|1 seed=7
//                 (any key implies "on")
//   VFT_BUDGET    target overhead percent, e.g. "5" or "5%"; implies
//                 sampling on with the controller driving the rate.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "vft/fastpath_ctx.h"

namespace vft::sampling {

struct Config {
  enum class Policy : std::uint8_t {
    kCell,  ///< sampled-out accesses update only the packed cell
    kDrop,  ///< sampled-out accesses touch nothing (ABI early exit)
  };

  bool enabled = false;
  double rate = 1.0;        ///< initial global sampling rate (0, 1]
  double budget_pct = 0.0;  ///< target overhead percent; 0: controller off
  Policy policy = Policy::kCell;
  bool adaptive = true;     ///< per-page/PC cooldown table armed
  std::uint64_t seed = 1;   ///< per-process RNG seed (threads decorrelate)
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

/// "policy=cell rate=0.0213 budget=5" - the effective-config line for run
/// banners and logs.
std::string describe(const Config& cfg);

/// Monotone counter snapshot of one gate's lifetime (relaxed reads; the
/// integer fields are what the report merge sums).
struct Stats {
  std::uint64_t sampled = 0;       ///< accesses admitted to the analysis
  std::uint64_t skipped = 0;       ///< accesses gated out
  std::uint64_t cooled_out = 0;    ///< skips due to a cooled page entry
  std::uint64_t reheats = 0;       ///< table resets from spill/race/free
  std::uint64_t overhead_ns = 0;   ///< extrapolated detector self-time
  std::uint64_t busy_ns = 0;       ///< process CPU time since gate install
  std::uint64_t adjustments = 0;   ///< controller windows applied
  double rate = 1.0;               ///< current global rate
  double overhead_pct = 0.0;       ///< overhead_ns / busy_ns, percent
};

/// The process-global sampling gate. Leaked like the Session that owns
/// its lifetime decisions: detached target threads may consult it during
/// static destruction.
class Gate {
 public:
  explicit Gate(const Config& cfg);

  /// The active gate, or nullptr when sampling is off. Installed by the
  /// session factory (runtime/session.cpp) before any gated access can
  /// run; replaced only by Session::reset() + re-creation (tests).
  static Gate* active() { return g_active.load(std::memory_order_acquire); }

  /// Make `g` (may be nullptr) the active gate. Publication only - the
  /// caller owns construction; previous gates leak by design (a stale
  /// TLS countdown can still reference one mid-access).
  static void install(Gate* g) {
    g_active.store(g, std::memory_order_release);
    g_drop.store(g != nullptr && g->cfg_.policy == Config::Policy::kDrop,
                 std::memory_order_release);
  }

  /// True iff the active gate runs the drop policy (the ABI early exit's
  /// one-load predicate).
  static bool drop_policy_active() {
    return g_drop.load(std::memory_order_acquire);
  }

  const Config& config() const { return cfg_; }

  /// The admission decision for one access (or one range event) at
  /// `addr`, with a controller probe token. Hot path (mid-gap skip): one
  /// thread-local decrement plus one branch, never probed - the cheap
  /// skip is the always-on floor the controller does not regulate. Every
  /// kProbeEvery-th *slow-path entry* (sample point, whether it ends up
  /// sampled or cooled out) opens a probe BEFORE admit_slow runs, so the
  /// measured cost covers the gate's own bookkeeping (gap draw, adaptive
  /// table) plus whatever detector work the caller brackets - the real
  /// marginal cost of raising the rate. The caller must pass the token to
  /// time_end() after the access completes (0 token: no-op).
  bool should_sample(const void* addr, std::uint64_t* probe) {
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
    return admit_slow(t, addr);
  }

  /// Probe-less admission for callers with nothing to bracket (the drop
  /// policy's ABI early exit): the gate's own slow-path cost is charged
  /// immediately; the (dropped) access contributes nothing else.
  bool should_sample(const void* addr) {
    std::uint64_t probe = 0;
    const bool s = should_sample(addr, &probe);
    time_end(probe);
    return s;
  }

  /// Drop-policy admission through the header-inlined fast path's
  /// descriptor (vft/fastpath_ctx.h): flushes the skips the inline path
  /// took on the gate's behalf, decides this access, and transfers the
  /// freshly drawn geometric countdown INTO the descriptor so subsequent
  /// sampled-out accesses resolve entirely inline. Returns true when this
  /// access is admitted. Defined in sampling.cpp.
  bool admit_and_refill(const void* addr, vft_fastpath_s* fp);

  /// Controller probe for accesses admitted without a gate decision (the
  /// drop policy's session side treats every arriving access as sampled):
  /// returns a timestamp token every kProbeEvery-th call, 0 otherwise.
  std::uint64_t maybe_time_begin() {
    Tls& t = tls();
    if (cfg_.budget_pct <= 0.0 ||
        (++t.sampled_since_probe & (kProbeEvery - 1)) != 0) {
      return 0;
    }
    return now_ns() | 1;
  }
  void time_end(std::uint64_t token);

  // --- reheat hooks (the adaptive table's feedback edges) --------------
  /// A sampled access at `addr` escalated its cell into a VarState.
  void on_spill(const void* addr) { reheat(addr); }
  /// A sampled access at `addr` reported a race.
  void on_race(const void* addr) { reheat(addr); }
  /// The target freed [addr, addr+size): cooled entries covering it go
  /// back to full rate (recycled addresses are new variables).
  void on_page_reset(const void* addr, std::size_t size);

  Stats snapshot() const;

  /// The calibrated timer floor (ns) subtracted from every controller
  /// probe; exposed for the bench's sampling section.
  double timer_floor_ns() const { return timer_floor_ns_; }

 private:
  static constexpr std::uint32_t kRateOne = 1u << 20;  ///< fixed-point 1.0
  static constexpr std::uint64_t kProbeEvery = 64;     ///< controller probe period
  static constexpr std::uint64_t kAdjustWindow = 4096; ///< samples per rate step
  static constexpr std::uint64_t kProbeOutlierNs = 32'000;  ///< discard preempted probes
  static constexpr std::size_t kTableSize = 1024;      ///< adaptive entries (pow2)
  static constexpr std::uint32_t kCleanPerCool = 256;  ///< samples to cool a level
  static constexpr std::uint32_t kMaxCooldown = 6;     ///< min effective rate 1/64
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

  bool admit_slow(Tls& t, const void* addr);
  void draw_gap(Tls& t);
  void reheat(const void* addr);
  bool cooled_out(Tls& t, const void* addr);
  void maybe_adjust();
  void calibrate();

  static std::atomic<Gate*> g_active;
  static std::atomic<bool> g_drop;

  const Config cfg_;
  const std::uint64_t gen_;  ///< unique per gate; stale TLS re-syncs
  std::atomic<std::uint32_t> rate_fp_;  ///< current rate * kRateOne

  /// Adaptive table: one packed word per entry -
  /// tag(32) | cooldown level(8) | clean-sample count(24). Entry 0 with
  /// tag 0 means "hot" (level 0), so a clean table starts at full rate.
  std::atomic<std::uint64_t> table_[kTableSize];

  std::atomic<std::uint64_t> sampled_{0};
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<std::uint64_t> cooled_out_{0};
  std::atomic<std::uint64_t> reheats_{0};
  std::atomic<std::uint64_t> overhead_ns_{0};
  std::atomic<std::uint64_t> window_overhead_ns_{0};
  std::atomic<std::uint64_t> window_samples_{0};
  std::atomic<std::uint64_t> window_start_ns_{0};
  std::atomic<std::uint64_t> adjustments_{0};
  std::uint64_t start_ns_ = 0;
  double timer_floor_ns_ = 0.0;
};

}  // namespace vft::sampling
