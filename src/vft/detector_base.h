// Pieces shared by every detector variant.
//
// The four synchronization handlers (Figure 3 lines 102-118) are identical
// across all variants - they touch only ThreadState and LockState, whose
// discipline never changes between v1 and v2:
//
//   acquire: runs *after* the target acquires m, so sm.V is protected by m.
//   release: runs *before* the target releases m.
//   fork:    runs in the forking thread *before* the target thread starts,
//            while su is still thread-local to the forker.
//   join:    runs *after* the target join completes, when su is read-only.
//
// Race recovery policy (Section 7 fail-over): the Figure 2 specification
// halts at the first Error, but a production checker keeps going. After
// reporting, handlers force-update the access history as if the racing
// access had been well ordered (the same choice the RoadRunner FastTrack
// implementations make), so one racy variable yields one report per
// distinct unordered access rather than per subsequent operation.
// Differential tests against the specification therefore compare behaviour
// up to and including the first race.
#pragma once

#include <mutex>

#include "vft/access_history.h"
#include "vft/atomics.h"
#include "vft/report.h"
#include "vft/shadow_state.h"
#include "vft/stats.h"

namespace vft {

/// Mixin holding the report/stat sinks every detector carries.
class DetectorBase {
 public:
  DetectorBase(RaceCollector* races, RuleStats* stats)
      : races_(races), stats_(stats) {}

  /// [Acquire]: St.V := St.V join Sm.V. The target lock m is held.
  void acquire(ThreadState& st, LockState& sm) {
    st.join(sm.V);
    count(Rule::kAcquire);
  }

  /// [Release]: Sm.V := St.V; St.V := inc_t(St.V). The target lock m is held.
  void release(ThreadState& st, LockState& sm) {
    sm.V.copy(st.V);
    st.inc();
    count(Rule::kRelease);
  }

  /// [Fork]: Su.V := Su.V join St.V; St.V := inc_t(St.V). Runs before u starts.
  void fork(ThreadState& st, ThreadState& su) {
    su.join(st.V);
    st.inc();
    count(Rule::kFork);
  }

  /// [Join]: St.V := St.V join Su.V. Runs after u has terminated and been
  /// joined; note VerifiedFT does *not* increment Su.V[u] here (Section 3).
  void join(ThreadState& st, ThreadState& su) {
    st.join(su.V);
    count(Rule::kJoin);
  }

  // --- __tsan_atomic* sync handlers (vft/atomics.h). Shared by every
  // variant exactly like the four pthread handlers above: they touch only
  // ThreadState, the location's AtomicState, and the thread's fence TLS.
  // `eff` is the mode-adjusted memory order (atomics::effective_mo); the
  // interposer executes the real operation with hardened hardware
  // ordering (loads at least acquire, stores at least release), which is
  // what makes the fast-epoch skip below sound: reading a value implies
  // seeing its writer's fast_epoch update, because every edge-creating
  // publication completes that update before its real store runs.

  /// [Atomic Load]: acquire-class joins Sa.V; relaxed contributes no edge
  /// but feeds the pending-acquire accumulator for a later acquire fence.
  void atomic_load(ThreadState& st, atomics::AtomicState& sa,
                   atomics::FenceTls& f, int eff) {
    count(Rule::kAtomicLoad);
    if (atomics::mo_is_acquire(eff)) {
      atomic_join(st, sa);
      return;
    }
    count(Rule::kAtomicRelaxed);
    atomic_accumulate(sa, f);
  }

  /// [Atomic Store]: release-class publishes St.V into Sa.V; relaxed
  /// publishes only a pending release-fence snapshot (or nothing).
  void atomic_store(ThreadState& st, atomics::AtomicState& sa,
                    atomics::FenceTls& f, int eff) {
    count(Rule::kAtomicStore);
    if (atomics::mo_is_release(eff)) {
      atomic_publish(st, sa);
      return;
    }
    count(Rule::kAtomicRelaxed);
    if (f.has_release) atomic_publish_snapshot(sa, f.release_V);
  }

  /// [Atomic RMW], store half - runs *before* the real operation so the
  /// publication is in Sa.V by the time the stored value is visible.
  /// A failed compare_exchange leaves this publication behind: a spurious
  /// hb edge (the value never became visible), never a missed race.
  void atomic_rmw_pre(ThreadState& st, atomics::AtomicState& sa,
                      atomics::FenceTls& f, int eff) {
    count(Rule::kAtomicRmw);
    if (atomics::mo_is_release(eff)) {
      atomic_publish(st, sa);
      return;
    }
    if (!atomics::mo_is_acquire(eff)) count(Rule::kAtomicRelaxed);
    if (f.has_release) atomic_publish_snapshot(sa, f.release_V);
  }

  /// [Atomic RMW], load half - runs *after* the real operation observed
  /// its prior value. For a failed compare_exchange the caller passes the
  /// failure order (a failed CAS is a load).
  void atomic_rmw_post(ThreadState& st, atomics::AtomicState& sa,
                       atomics::FenceTls& f, int eff) {
    if (atomics::mo_is_acquire(eff)) {
      atomic_join(st, sa);
    } else {
      atomic_accumulate(sa, f);
    }
  }

  /// [Atomic Fence]: the C++ fence-synchronization rules in clock form.
  /// Acquire half first, so an acq_rel/seq_cst fence's release snapshot
  /// includes what its acquire half just joined.
  void atomic_fence(ThreadState& st, atomics::FenceTls& f, int eff) {
    count(Rule::kAtomicFence);
    const bool acq = atomics::mo_is_acquire(eff);
    const bool rel = atomics::mo_is_release(eff);
    if (acq && f.has_acquire) st.join(f.acquire_V);
    if (rel) {
      // Snapshot now; inc so the snapshot's own epoch t@c never covers a
      // later access by t (the same reason [Release] increments).
      f.release_V.copy(st.V);
      f.has_release = true;
      st.inc();
    }
    if (!acq && !rel) count(Rule::kAtomicRelaxed);
  }

  // --- The two joining edges: the atomic handlers above, rt::Volatile,
  // Once, SharedMutex and Barrier, and the trace replayer's volatiles all
  // run on these, over one AtomicState per sync object.

  /// Acquire edge: St.V := St.V join Sa.V, behind the fast-epoch skip.
  /// Knowing the armed epoch t@c means St.V already holds t's clock at c,
  /// which the dominating arm made a superset of Sa.V; a SHARED or
  /// unknown arm takes the locked join.
  void atomic_join(ThreadState& st, atomics::AtomicState& sa) {
    VFT_SCHED_POINT(kLoad, &sa.fast_epoch);
    const std::uint32_t bits = sa.fast_epoch.load(std::memory_order_acquire);
    if (bits == 0) return;  // nothing ever published: Sa.V is bottom
    if (bits != atomics::AtomicState::kSharedBits) {
      const Epoch fe = Epoch::from_bits(bits);
      if (leq(fe, st.V.get(fe.tid()))) return;
    }
    std::scoped_lock lk(sa.mu);
    st.join(sa.sync_V);
  }

  /// Release edge: Sa.V := Sa.V join St.V; St.V := inc_t(St.V). The join
  /// (not the [Release] copy) because unordered publishers must not lose
  /// each other's clocks - this matches the specification's volatile
  /// handler. The arm is stored under sa.mu with the join it summarizes,
  /// so publishers arm in the order they join: a dominating publisher
  /// re-arms (even over SHARED) only while Sa.V is exactly its clock, and
  /// every later non-dominating one collapses that arm to SHARED.
  void atomic_publish(ThreadState& st, atomics::AtomicState& sa) {
    {
      std::scoped_lock lk(sa.mu);
      const bool dominated = sa.sync_V.leq(st.V);
      sa.sync_V.join(st.V);
      VFT_SCHED_POINT(kStore, &sa.fast_epoch);
      sa.fast_epoch.store(
          dominated ? st.epoch().bits() : atomics::AtomicState::kSharedBits,
          std::memory_order_release);
    }
    st.inc();
  }

  RaceCollector* races() const { return races_; }
  RuleStats* stats() const { return stats_; }

 protected:
  /// Forced inline: with the sharded bump behind it the inliner would
  /// otherwise call count() out of line, and a detector with no RuleStats
  /// would pay a call per handler instead of one branch.
  [[gnu::always_inline]] void count(Rule r) {
    if (stats_ != nullptr) stats_->bump(r);
  }

  /// Fence-backed publication: a relaxed store after a release fence
  /// publishes the fence's snapshot. No single epoch summarizes a
  /// snapshot, so the arm collapses to SHARED, under sa.mu like every arm.
  void atomic_publish_snapshot(atomics::AtomicState& sa,
                               const VectorClock& snap) {
    std::scoped_lock lk(sa.mu);
    if (snap.leq(sa.sync_V)) return;  // already published: keep the arm
    sa.sync_V.join(snap);
    VFT_SCHED_POINT(kStore, &sa.fast_epoch);
    sa.fast_epoch.store(atomics::AtomicState::kSharedBits,
                        std::memory_order_release);
  }

  /// Relaxed load: fold Sa.V into the pending-acquire accumulator (the
  /// acquire-fence rule needs the release clock of every location read
  /// relaxed since the last fence). Never cleared: once joined into St.V
  /// the accumulator is dominated, so later joins are no-ops.
  void atomic_accumulate(atomics::AtomicState& sa, atomics::FenceTls& f) {
    std::scoped_lock lk(sa.mu);
    f.acquire_V.join(sa.sync_V);
    f.has_acquire = true;
  }

  /// History hooks: every slow-path access handler calls one of these
  /// after the same-epoch checks (a same-epoch hit and a sampled-out
  /// access never record - see access_history.h). They record into the
  /// collector's history; a detector without a collector, or a collector
  /// with the history off, records nothing.
  void record_read(std::uint64_t var, const ThreadState& st) {
    record(var, st, history::AccessKind::kRead);
  }
  void record_write(std::uint64_t var, const ThreadState& st) {
    record(var, st, history::AccessKind::kWrite);
  }

  void report(RaceKind kind, std::uint64_t var, const ThreadState& st,
              Epoch prior) {
    switch (kind) {
      case RaceKind::kWriteRead: count(Rule::kWriteReadRace); break;
      case RaceKind::kWriteWrite: count(Rule::kWriteWriteRace); break;
      case RaceKind::kReadWrite: count(Rule::kReadWriteRace); break;
      case RaceKind::kSharedWrite: count(Rule::kSharedWriteRace); break;
    }
    if (races_ == nullptr) return;
    const RaceOccurrence o{kind, var, st.t, prior, st.epoch()};
    // Stack capture is fire-on-race only: the race-free fast path never
    // reaches this line. Yields an empty stack unless an interposition
    // boundary armed the per-thread event context (vft/stack.h).
    const CallStack stack = capture_event_stack();
    // A repeat of a known context stops here (ALGORITHM.md §13.4): the
    // prior stack is evidence for a context's first occurrence only (the
    // keys are current-side only), so nothing below runs again for it.
    if (races_->fold(o, stack)) return;
    RaceReport r{o, stack, CallStack{}};
    // Look the prior side up in the access history: the prior thread's
    // record of this variable, matched on the opposite access kind and
    // the exact full epoch (t@c). Exact matching makes tid-slot reuse
    // safe: a reused slot continues its predecessor's clock, so the same
    // t@c can never denote two different accesses. A SHARED prior
    // (read-shared write race) carries no single epoch and finds
    // nothing; the report then degrades to a bare epoch, exactly like
    // pre-history reports.
    if (history::AccessHistory* h = races_->history()) {
      const history::AccessKind want =
          (kind == RaceKind::kReadWrite || kind == RaceKind::kSharedWrite)
              ? history::AccessKind::kRead
              : history::AccessKind::kWrite;
      history::Entry pe;
      if (h->find(var, prior, want, &pe)) {
        h->stack_of(pe.stack_id, &r.prior_stack);
      }
    }
    races_->report(r);
  }

 private:
  void record(std::uint64_t var, const ThreadState& st,
              history::AccessKind kind) {
    if (races_ == nullptr) return;
    if (history::AccessHistory* h = races_->history()) {
      h->record_current(var, st.epoch(), kind);
    }
  }

  RaceCollector* races_;
  RuleStats* stats_;
};

/// e happens-before V: e <= V(tid(e)) (Section 3). The paper's handlers
/// spell this LEQ(e, st.get(TID(e))).
inline bool epoch_leq_vc(Epoch e, const VectorClock& v) {
  return leq(e, v.get(e.tid()));
}

/// The Section 7 "Local Optimizations" form: tests guaranteed to succeed
/// via program order are short-circuited -
///     st.t == TID(e) || LEQ(e, st.get(TID(e)))
/// - if the recorded epoch belongs to the current thread, the prior access
/// happens-before the current one by program order (thread clocks are
/// monotone), so the vector-clock load is skipped entirely.
inline bool ordered_before(Epoch e, const ThreadState& st) {
  return e.tid() == st.t || leq(e, st.V.get(e.tid()));
}

}  // namespace vft
