// SchedPoint: the VFT_SCHED injection seam for systematic schedule
// exploration (loom/CHESS style) of the detectors' own atomics.
//
// The detectors' lock-free hot paths (sync_var_state.h, ft_cas.h,
// packed_cell.h, sync_vector_clock.h, the fast-epoch skip of
// DetectorBase::atomic_join and atomic_publish's arm, which every atomic
// and rt:: sync wrapper runs on) announce every shared atomic load/store/CAS
// through VFT_SCHED_POINT before performing it; the shadow space
// (runtime/shadow_space.h) announces the CASes that publish its pages,
// sync tables and sync objects. Under a VFT_SCHED build
// with a scheduler installed (src/sched/scheduler.h), each announcement
// parks the calling thread until the scheduler picks it to run, so a
// driver can enumerate or sample every interleaving of the announced
// operations. Without VFT_SCHED the macros expand to nothing and the
// cooperative mutex alias collapses to std::mutex: the production hot
// paths are byte-for-byte what they were.
//
// ODR rule: every translation unit that includes an instrumented header
// and ends up in the same binary must agree on VFT_SCHED. The sched test
// target therefore links only libraries whose TUs never include detector
// headers (vft_core, vft_trace) and compiles the runtime TUs it needs
// itself; see tests/CMakeLists.txt.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

namespace vft::sched {

/// True in VFT_SCHED builds; lets call sites (the CLI) degrade gracefully
/// instead of silently exploring a program with no sched points.
#ifdef VFT_SCHED
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// What the parked thread is about to do. The explorer's dependence
/// relation (sleep-set pruning) and the scheduler's enabled-set both key
/// off this: two operations conflict iff they target the same object and
/// at least one is a write (CAS counts as a write even when it fails -
/// over-approximating dependence is sound, it only costs pruning).
enum class PointKind : std::uint8_t {
  kThreadStart,  ///< virtual thread parked before its body runs
  kLoad,         ///< atomic load
  kStore,        ///< atomic store
  kCas,          ///< compare-exchange (attempt; may fail)
  kLockAcq,      ///< cooperative mutex lock (disabled while held by another)
  kLockRel,      ///< cooperative mutex unlock
  kSpin,         ///< spin-loop iteration (disabled until any state change)
};

/// True when the op kind can change shared state (wakes spinners, makes
/// CAS loops re-run, conflicts with everything on the same object).
inline constexpr bool is_write_kind(PointKind k) {
  return k == PointKind::kStore || k == PointKind::kCas ||
         k == PointKind::kLockAcq || k == PointKind::kLockRel;
}

/// One announced pending operation.
struct PendingOp {
  PointKind kind = PointKind::kThreadStart;
  const void* obj = nullptr;
};

/// Two pending ops conflict (are "dependent" in the partial-order sense)
/// iff they can't be commuted: same object, at least one write-like.
/// kThreadStart and kSpin conservatively conflict with everything, so a
/// sleeping thread holding one never stays wrongly asleep.
inline bool conflicting(const PendingOp& a, const PendingOp& b) {
  if (a.kind == PointKind::kThreadStart || b.kind == PointKind::kThreadStart ||
      a.kind == PointKind::kSpin || b.kind == PointKind::kSpin) {
    return true;
  }
  if (a.obj != b.obj) return false;
  return is_write_kind(a.kind) || is_write_kind(b.kind);
}

/// The scheduler side of the seam. Installed per OS thread via tls_hook;
/// the instrumented headers call through it only when one is present.
class SchedHook {
 public:
  virtual ~SchedHook() = default;
  /// Announce `op` and park until scheduled; the caller performs the op
  /// after this returns, before its next point.
  virtual void point(PendingOp op) = 0;
  /// Cooperative mutex ops: the scheduler serializes execution and tracks
  /// ownership, so no real lock is taken while a hook is installed.
  virtual void coop_lock(const void* mu) = 0;
  virtual void coop_unlock(const void* mu) = 0;
  /// One spin-loop iteration: park until any other thread performs a
  /// store/CAS/unlock (keeps DFS over spin loops finite).
  virtual void spin(const void* obj) = 0;
};

inline thread_local SchedHook* tls_hook = nullptr;

inline void point(PointKind k, const void* obj) {
  if (SchedHook* h = tls_hook) h->point({k, obj});
}

inline void spin_yield(const void* obj) {
  if (SchedHook* h = tls_hook) {
    h->spin(obj);
  } else {
    std::this_thread::yield();
  }
}

/// Drop-in mutex for the detectors' VarState/AtomicState locks. With a hook
/// installed, lock/unlock become scheduler decisions (the scheduler keeps
/// a thread with a pending acquire on a held lock disabled); without one
/// it is a plain std::mutex. Lockable, so std::scoped_lock works.
class Mutex {
 public:
  void lock() {
    if (SchedHook* h = tls_hook) {
      h->coop_lock(this);
    } else {
      mu_.lock();
    }
  }
  void unlock() {
    if (SchedHook* h = tls_hook) {
      h->coop_unlock(this);
    } else {
      mu_.unlock();
    }
  }

 private:
  std::mutex mu_;
};

/// Test-only ordering mutations (the "seeded bug" smoke tests of
/// tests/sched_explore_test.cpp). Consulted only inside #ifdef VFT_SCHED
/// blocks of the instrumented headers: production builds never even read
/// the flags. Each knob reorders two statements in exactly the way the
/// weakened memory order it names would permit, so the SC-only explorer
/// can observe the bug as a statement interleaving.
struct Mutations {
  /// rt::Volatile::store publishes the data value *before* its
  /// atomic_publish joins the clock and arms the AtomicState's fast epoch
  /// (models dropping the ordering between the publication and the value
  /// store): a reader can observe a fresh value with a stale armed epoch
  /// it already knows, skip the clock join, and later report a false race
  /// on a location the volatile was supposed to order.
  static inline std::atomic<bool> volatile_value_before_arm{false};
  /// escalate_cell publishes ESCALATED *before* injecting the {R, W}
  /// snapshot into the spilled VarState (models dropping the release on
  /// finish_escalate): a losing thread can run the detector against an
  /// empty VarState and miss a race the snapshot carried.
  static inline std::atomic<bool> escalate_publish_before_inject{false};

  static void reset() {
    volatile_value_before_arm.store(false, std::memory_order_relaxed);
    escalate_publish_before_inject.store(false, std::memory_order_relaxed);
  }
};

}  // namespace vft::sched

namespace vft {

/// The mutex type the instrumented headers declare. std::mutex in
/// production builds; the cooperative one under VFT_SCHED.
#ifdef VFT_SCHED
using SchedMutex = sched::Mutex;
#else
using SchedMutex = std::mutex;
#endif

}  // namespace vft

#ifdef VFT_SCHED
#define VFT_SCHED_POINT(kind, obj) \
  ::vft::sched::point(::vft::sched::PointKind::kind, obj)
#define VFT_SCHED_SPIN(obj) ::vft::sched::spin_yield(obj)
#else
#define VFT_SCHED_POINT(kind, obj) ((void)0)
#define VFT_SCHED_SPIN(obj) (std::this_thread::yield())
#endif
