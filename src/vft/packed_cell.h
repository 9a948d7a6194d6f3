// Packed shadow cell: the inline same-epoch fast path of this repo's
// perf line (SmartTrack/RoadRunner "fast path in a handful of
// unsynchronized instructions" shape, brought to the VerifiedFT rules).
//
// One 64-bit atomic word per shadowed memory word holds {R, W} while the
// variable is in an *epoch-only* state: R in the high 32 bits, W in the
// low 32 (exactly FtCas::VarState's packing). The per-access fast path is
//
//   read:   load cell; R == E_t            -> done      [Read Same Epoch]
//           R, W both ordered before t     -> CAS {E_t, W}  [Read Exclusive]
//           otherwise                      -> escalate
//   write:  load cell; W == E_t            -> done      [Write Same Epoch]
//           R, W both ordered before t     -> CAS {R, E_t}  [Write Exclusive]
//           otherwise                      -> escalate
//
// i.e. a load, a compare, and (for the exclusive advance) one CAS - no
// detector call, no VarState, no lock. Everything else - read sharing,
// lock-protected handoffs, races - spills the cell's exact {R, W} snapshot
// into a full VarState and runs the unmodified production detector on it
// from then on. Both directions share one entry per layer: the decision
// tree is PackedCell::fast<IsWrite>, and every caller (the shadow space,
// the wrappers, the sched scenarios) goes through packed_access<IsWrite>,
// which adds the rule accounting, the sampling gate's verdict and the
// spill.
//
// Precision argument (why the fast path changes no verdict): while a cell
// is in epoch mode, its {R, W} is exactly the {R, W} the detector would
// hold for the same access history. [Read/Write Same Epoch] are no-ops in
// every detector; the exclusive advances perform the same single-field
// update the detector's epoch rules perform; and the cell refuses (and
// escalates) precisely when the next transition is *not* one of those four
// rules - before any [Read Share], [Read/Write Shared] or race rule would
// fire. The spill injects the snapshot via inject() (vft/probe.h), so the
// detector resumes from the exact state it would have had. Races are
// therefore reported by the detector, never swallowed by the fast path.
//
// Escalation protocol and its linearization (the Section 5-style argument,
// written out in docs/ALGORITHM.md s10): escalation is a one-way
// transition driven by a CAS to the ESCALATING sentinel. The winning CAS
// is the linearization point - it carries the authoritative {R, W}
// snapshot out of the cell (epochs in the cell are monotone and the
// sentinel is terminal, so there is no ABA). The winner injects the
// snapshot into the VarState, publishes it, and only then release-stores
// ESCALATED; every other thread that observes a sentinel either spins out
// the (short: one inject) window or acquire-loads ESCALATED, which makes
// the injected VarState visible before it is ever passed to a detector
// handler. Fast paths never complete against a sentinel, so no access can
// race the handoff.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>

#include "sched/sched_point.h"
#include "vft/access_history.h"
#include "vft/detector_base.h"
#include "vft/probe.h"

namespace vft {

/// VarState representations the packed cell can spill into: inject() must
/// reconstruct an epoch-mode state and the id field must exist for race
/// reports. All six production detectors qualify (Djit via the vector-clock
/// singleton injection in probe.h); rt::NullTool does not (nothing to
/// spill to - and nothing to detect).
template <typename VS>
concept SpillableVarState = requires(VS& v, Epoch e) {
  inject(v, e, e);
  { v.id } -> std::convertible_to<std::uint64_t>;
};

/// Bump a RuleStats counter through any tool exposing a stats() accessor
/// (the DetectorBase family); no-op otherwise. The fast path lives outside
/// the detector handlers, so it must do its own rule accounting.
template <typename Tool>
inline void bump_rule(Tool& tool, Rule r) {
  if constexpr (requires { tool.stats(); }) {
    if (RuleStats* s = tool.stats()) s->bump(r);
  }
}

/// Bulk variant for the SIMD range kernels: a matched prefix of n cells
/// bumps its rule counters once with n instead of n times.
template <typename Tool>
inline void bump_rule(Tool& tool, Rule r, std::uint64_t n) {
  if constexpr (requires { tool.stats(); }) {
    if (RuleStats* s = tool.stats()) s->bump(r, n);
  }
}

class PackedCell {
 public:
  /// Sentinels: an epoch-mode cell never stores SHARED in its R field
  /// (read sharing escalates first), so R == all-ones marks the cell as
  /// out of epoch mode. The W field disambiguates the two phases.
  static constexpr std::uint64_t kEscalating = 0xFFFFFFFF00000000ull;
  static constexpr std::uint64_t kEscalated = 0xFFFFFFFF00000001ull;

  /// Same packing as FtCas::VarState: R high, W low. The default cell
  /// (all zeroes) is {bottom, bottom}: clock-0 epochs are ordered before
  /// everything (thread clocks start at 1), so first touches take the
  /// exclusive fast path instead of escalating.
  static constexpr std::uint64_t pack(Epoch r, Epoch w) {
    return (static_cast<std::uint64_t>(r.bits()) << 32) | w.bits();
  }
  static constexpr Epoch unpack_r(std::uint64_t v) {
    return Epoch::from_bits(static_cast<std::uint32_t>(v >> 32));
  }
  static constexpr Epoch unpack_w(std::uint64_t v) {
    return Epoch::from_bits(static_cast<std::uint32_t>(v));
  }
  static constexpr bool is_sentinel(std::uint64_t v) {
    return (v >> 32) == 0xFFFFFFFFull;
  }

  /// Shared access to the cell word funnels through these, so the sched
  /// explorer interleaves every fast-path load/CAS and the escalation
  /// handshake.
  std::uint64_t load_bits() const {
    VFT_SCHED_POINT(kLoad, &bits_);
    return bits_.load(std::memory_order_acquire);
  }
  bool cas_bits(std::uint64_t& expected, std::uint64_t desired) {
    VFT_SCHED_POINT(kCas, &bits_);
    return bits_.compare_exchange_weak(expected, desired,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  enum class Fast : std::uint8_t {
    kSameEpoch,  ///< hit: [Read/Write Same Epoch], cell untouched
    kAdvanced,   ///< hit: [Read/Write Exclusive], committed by one CAS
    kSlow,       ///< miss: escalate (or already escalated) and call the detector
  };

  /// The fast path of one access: [Read/Write Same Epoch] or
  /// [Read/Write Exclusive]. Never completes an access the detector would
  /// not treat as one of those rules on identical state.
  template <bool IsWrite>
  Fast fast(const ThreadState& st) {
    const Epoch e = st.epoch();
    std::uint64_t cur = load_bits();
    for (;;) {
      if (is_sentinel(cur)) return Fast::kSlow;
      const Epoch r = unpack_r(cur);
      const Epoch w = unpack_w(cur);
      if ((IsWrite ? w : r) == e) return Fast::kSameEpoch;
      if (!ordered_before(r, st) || !ordered_before(w, st)) return Fast::kSlow;
      if (cas_bits(cur, IsWrite ? pack(r, e) : pack(e, w))) {
        return Fast::kAdvanced;
      }
    }
  }

  /// Claim the escalation. Returns the cell's {R, W} snapshot iff the
  /// caller won the ESCALATING CAS (the linearization point) and must now
  /// inject + publish the VarState and call finish_escalate(); returns
  /// nullopt once the cell is ESCALATED (spinning out a concurrent
  /// winner's publication window if needed).
  std::optional<std::pair<Epoch, Epoch>> begin_escalate() {
    std::uint64_t cur = load_bits();
    for (;;) {
      if (cur == kEscalated) return std::nullopt;
      if (cur == kEscalating) {
        wait_escalated();
        return std::nullopt;
      }
      if (cas_bits(cur, kEscalating)) {
        return std::make_pair(unpack_r(cur), unpack_w(cur));
      }
    }
  }

  /// Publish the escalation: the spilled VarState must be fully injected
  /// and reachable before this release-store.
  void finish_escalate() {
    VFT_SCHED_POINT(kStore, &bits_);
    bits_.store(kEscalated, std::memory_order_release);
  }

  bool escalated() const { return load_bits() == kEscalated; }

  /// Raw word, for tests and split-snapshotting layers.
  std::uint64_t bits() const { return load_bits(); }

 private:
  void wait_escalated() const {
    // The window is one inject() wide; spin with a yield for fairness on
    // oversubscribed hosts. Under the cooperative scheduler each
    // iteration parks as "blocked until a state change" so exploration
    // over the spin stays finite.
    while (load_bits() != kEscalated) {
      VFT_SCHED_SPIN(&bits_);
    }
  }

  std::atomic<std::uint64_t> bits_{0};
};

/// Resolve a cell to its spilled VarState, escalating it first if this
/// caller gets there before anyone else. `make` must create/locate the
/// VarState and make it reachable for `get` (publication order is carried
/// by the cell, so plain stores suffice inside make); `get` returns the
/// already-published VarState. Both are only invoked under the protocol's
/// mutual exclusion guarantees. Sets *won when this call performed the
/// spill (for stats).
template <typename Make, typename Get>
inline auto& escalate_cell(PackedCell& cell, Make&& make, Get&& get,
                           bool* won = nullptr) {
  if (auto rw = cell.begin_escalate()) {
    auto& vs = make();
#ifdef VFT_SCHED
    // Seeded-bug hook: publish ESCALATED *before* the snapshot lands, the
    // interleaving a dropped release on finish_escalate() would allow. A
    // loser can then read an empty VarState and miss the race the
    // snapshot carried; the mutation smoke test asserts the explorer
    // catches exactly that.
    if (sched::Mutations::escalate_publish_before_inject.load(
            std::memory_order_relaxed)) {
      cell.finish_escalate();
      inject(vs, rw->first, rw->second);
      if (won != nullptr) *won = true;
      return vs;
    }
#endif
    inject(vs, rw->first, rw->second);
    cell.finish_escalate();
    if (won != nullptr) *won = true;
    return vs;
  }
  if (won != nullptr) *won = false;
  return get();
}

/// One instrumented access through a packed cell: fast path inline,
/// detector call (spilling first if necessary) otherwise. Returns the
/// detector's verdict (true = no race; fast-path hits are race-free by
/// construction). Deliberately independent of rt::Runtime so trace-level
/// differential tests can drive the exact production code with
/// hand-managed ThreadStates. Sets *spilled when this access escalated the
/// cell (the sampling layer's reheat signal).
///
/// `sampled` is the sampling gate's verdict (vft/sampling.h). A
/// sampled-out access runs *only* the fast path: a same-epoch hit leaves
/// the cell alone and an exclusive advance commits the same single-CAS
/// update the real access would, so the cell's last-access metadata stays
/// fresh for later sampled accesses to race against. kSlow returns
/// without escalating and without calling the detector - a sampled-out
/// access never spills, never touches a VarState, and (if the cell is
/// already ESCALATED) never advances the spilled state either. Only
/// Rule::kSampledOut is bumped: the access-rule counters keep describing
/// the *analyzed* access mix, which is what the Table 1 distribution and
/// the rate=1.0 differential test compare.
template <bool IsWrite, typename Tool, typename Make, typename Get>
inline bool packed_access(Tool& tool, ThreadState& st, PackedCell& cell,
                          Make&& make, Get&& get, bool sampled = true,
                          bool* spilled = nullptr, std::uint64_t var = 0) {
  if (!sampled) [[unlikely]] {
    (void)cell.fast<IsWrite>(st);  // keep last-access metadata fresh
    bump_rule(tool, Rule::kSampledOut);
    return true;
  }
  constexpr Rule kHit = IsWrite ? Rule::kFastWriteHit : Rule::kFastReadHit;
  switch (cell.fast<IsWrite>(st)) {
    case PackedCell::Fast::kSameEpoch:
      bump_rule(tool, IsWrite ? Rule::kWriteSameEpoch : Rule::kReadSameEpoch);
      bump_rule(tool, kHit);
      return true;
    case PackedCell::Fast::kAdvanced:
      bump_rule(tool, IsWrite ? Rule::kWriteExclusive : Rule::kReadExclusive);
      bump_rule(tool, kHit);
      // An exclusive advance installs a NEW last-access epoch without ever
      // reaching a detector, and that epoch is exactly what a later racing
      // access will name as its prior - so the advance is a history-worthy
      // (non-same-epoch) transition. Callers with a stable variable id
      // (the packed shadow space) pass it; var 0 (trace tests, benches)
      // keeps the historical un-instrumented behaviour.
      if (var != 0) {
        history::note_access(var, st.epoch(),
                             IsWrite ? history::AccessKind::kWrite
                                     : history::AccessKind::kRead);
      }
      return true;
    case PackedCell::Fast::kSlow:
      break;
  }
  bool won = false;
  auto& vs = escalate_cell(cell, std::forward<Make>(make),
                           std::forward<Get>(get), &won);
  if (won) bump_rule(tool, Rule::kFastSpill);
  if (spilled != nullptr) *spilled = won;
  bump_rule(tool, Rule::kFastMiss);
  return IsWrite ? tool.write(st, vs) : tool.read(st, vs);
}

}  // namespace vft
