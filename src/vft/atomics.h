// Per-address synchronization state for the __tsan_atomic* surface: the
// memory-order-precise clock treatment of C11/C++11 atomics.
//
// The stance is precision-first (the robustness-checking reading of the
// FT2 design): an atomic operation contributes a happens-before edge only
// when its memory order says so -
//
//   acquire-class load   St.V := St.V join Sa.V        (joins the release clock)
//   release-class store  Sa.V := Sa.V join St.V; inc_t (publishes the clock)
//   RMW                  both ends, per its single order
//   relaxed              NO edge - the access orders nothing
//
// so a program whose only ordering is x86's strong execution of relaxed
// atomics still shows its plain-data races. Atomic accesses themselves
// never race (C++ guarantees atomicity regardless of order); what the
// missing edges expose is the unordered *plain* data around them.
//
// Fences follow the C++ fence-synchronization rules in clock form:
//
//   fence(release)  snapshot St.V; inc_t. Every later relaxed store
//                   publishes the snapshot into its location's Sa.V.
//   fence(acquire)  St.V := St.V join A, where A is the accumulation of
//                   Sa.V over every relaxed load since (each relaxed load
//                   folds its location's current release clock into the
//                   thread's pending-acquire clock A).
//   fence(seq_cst)  both halves. The seq_cst total order itself is not
//                   modeled (like TSan; only its acquire/release strength).
//
// Sa.V lives in the packed shadow's per-page sync table, keyed by the
// location's exact address (rt::PackedShadowSpace::atomic_of, beside the
// lock states of rt::PackedShadowSpace::lock_of): stable until a free of
// the location resets it, shared by every alias of the address, and looked
// up without a lock. Each state carries the FastTrack volatile-epoch
// fast path: a release publication whose thread clock dominated Sa.V arms
// `fast_epoch` with the publishing epoch t@c, and an acquirer that already
// knows t@c skips the locked join entirely (knowing t@c implies having
// absorbed the publisher's full clock at c, hence Sa.V). The arm is
// stored under the state's mutex with the join it summarizes, so
// concurrent publishers arm in join order and an unordered one collapses
// it to SHARED; the store and the acquirer's load are
// VFT_SCHED_POINT-probed for the src/sched/ explorer.
#pragma once

#include <atomic>
#include <cstdint>

#include "sched/sched_point.h"
#include "vft/epoch.h"
#include "vft/vector_clock.h"

namespace vft::atomics {

// The TSan morder ABI values; identical to GCC/Clang's __ATOMIC_*
// constants, so the interposer forwards the compiler's argument verbatim.
inline constexpr int kMoRelaxed = 0;
inline constexpr int kMoConsume = 1;
inline constexpr int kMoAcquire = 2;
inline constexpr int kMoRelease = 3;
inline constexpr int kMoAcqRel = 4;
inline constexpr int kMoSeqCst = 5;

/// Consume is promoted to acquire (the standard implementation choice).
inline constexpr bool mo_is_acquire(int mo) {
  return mo == kMoConsume || mo == kMoAcquire || mo == kMoAcqRel ||
         mo == kMoSeqCst;
}

inline constexpr bool mo_is_release(int mo) {
  return mo == kMoRelease || mo == kMoAcqRel || mo == kMoSeqCst;
}

/// VFT_ATOMICS launch-time mode.
///   precise  (default) edges exactly per memory order - relaxed orders
///            nothing, so x86-hidden races surface.
///   sc       every order is modeled as seq_cst: the conservative
///            "TSan-on-x86 strong execution" view. The A/B half of the
///            litmus corpus: races the precise mode flags disappear here.
/// Any other value means precise.
enum class Mode : std::uint8_t { kPrecise, kSc };

Mode mode_from_env();

/// The effective memory order under `mode`.
inline int effective_mo(Mode mode, int mo) {
  return mode == Mode::kSc ? kMoSeqCst : mo;
}

/// One atomic location's synchronization shadow; also the only sync state
/// of each rt::Volatile, Once, SharedMutex and Barrier object.
struct AtomicState {
  /// SHARED sentinel for fast_epoch: unordered publishers, fast path off.
  static constexpr std::uint32_t kSharedBits = ~std::uint32_t{0};

  SchedMutex mu;
  /// Release clock Sa.V: join of every release-class publication (and
  /// every fence-backed snapshot publication). Guarded by mu.
  VectorClock sync_V;
  /// 0: nothing published yet (acquirers and relaxed loads skip the
  /// locked join - there is no clock to join). kSharedBits: publishers
  /// were unordered, every acquirer takes the locked join. Otherwise the
  /// epoch t@c of the last dominating publication: an acquirer whose
  /// V[t] >= c already absorbed Sa.V and skips the join.
  std::atomic<std::uint32_t> fast_epoch{0};
};

/// Per-OS-thread fence state, generation-tagged so a Session::reset()
/// can never leak a previous backend's clocks into the next.
///
///   release_V  the snapshot taken by the last release-class fence;
///              published into Sa.V by every later relaxed store.
///   acquire_V  the accumulation of Sa.V over relaxed loads since; an
///              acquire-class fence joins it into the thread clock.
///              Never cleared: after the join it is <= St.V, so keeping
///              it only makes future joins no-ops (monotone, no precision
///              loss, no reallocation churn).
struct FenceTls {
  std::uint64_t generation = 0;
  bool has_release = false;
  bool has_acquire = false;
  VectorClock release_V;
  VectorClock acquire_V;
};

/// The calling thread's fence state for the session generation `gen`
/// (state from an older generation is discarded on first touch).
FenceTls& fence_tls(std::uint64_t gen);

}  // namespace vft::atomics
