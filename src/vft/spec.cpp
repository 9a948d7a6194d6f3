#include "vft/spec.h"

#include "vft/assert.h"
#include "vft/atomics.h"

namespace vft {

namespace {

/// t@c happens-before V (Section 3): t@c <= V(t).
bool epoch_leq(Epoch e, const VectorClock& v) {
  return leq(e, v.get(e.tid()));
}

}  // namespace

VectorClock& Spec::thread_state(Tid t) {
  auto it = threads_.find(t);
  if (it == threads_.end()) {
    // S0 maps each thread to inc_t(bottom): V[t] = t@1.
    VectorClock vc;
    vc.set(t, Epoch::make(t, 1));
    it = threads_.emplace(t, std::move(vc)).first;
  }
  return it->second;
}

VectorClock& Spec::lock_state(LockId m) {
  return locks_[m];  // S0: bottom vector clock
}

VectorClock& Spec::vol_state(VolId v) {
  return volatiles_[v];  // S0: bottom vector clock
}

VectorClock& Spec::atomic_state(VolId a) {
  return atomics_[a];  // S0: bottom release clock Sa.V
}

Spec::FenceState& Spec::fence_state(Tid t) {
  return fences_[t];  // S0: no pending fence halves
}

Spec::VarState& Spec::var_state(VarId x) {
  return vars_[x];  // S0: bottom clock, R = W = bottom epoch
}

Spec::StepResult Spec::on_read(Tid t, VarId x) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  VarState& sx = var_state(x);
  const Epoch e = st.get(t);

  // [Read Same Epoch]: Sx.R = E_t. (SHARED never bit-equals a real epoch.)
  if (sx.R == e) return ok(Rule::kReadSameEpoch);

  // [Read Shared Same Epoch]: Sx.R = SHARED and Sx.V(t) = E_t.
  // VerifiedFT-only rule; the original FastTrack falls through to
  // [Read Shared] below and redoes the write check.
  if (rules_ == RuleSet::kVerifiedFT && sx.R.is_shared() && sx.V.get(t) == e) {
    return ok(Rule::kReadSharedSameEpoch);
  }

  // [Write-Read Race]: Sx.W not happens-before St.V.
  if (!epoch_leq(sx.W, st)) return error(Rule::kWriteReadRace);

  if (sx.R.is_shared()) {
    // [Read Shared]: Sx.V(t) := E_t.
    sx.V.set(t, e);
    return ok(Rule::kReadShared);
  }
  if (epoch_leq(sx.R, st)) {
    // [Read Exclusive]: reads remain totally ordered; Sx.R := E_t.
    sx.R = e;
    return ok(Rule::kReadExclusive);
  }
  // [Read Share]: concurrent reads; switch to vector-clock read history
  // v = bottom[t := E_t, u := Sx.R].
  VFT_ASSERT(sx.R.tid() != t);  // u != t is implied by program order
  VectorClock v;
  v.set(sx.R.tid(), sx.R);
  v.set(t, e);
  sx.V = std::move(v);
  sx.R = Epoch::shared();
  return ok(Rule::kReadShare);
}

Spec::StepResult Spec::on_write(Tid t, VarId x) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  VarState& sx = var_state(x);
  const Epoch e = st.get(t);

  // [Write Same Epoch]: Sx.W = E_t.
  if (sx.W == e) return ok(Rule::kWriteSameEpoch);

  // [Write-Write Race].
  if (!epoch_leq(sx.W, st)) return error(Rule::kWriteWriteRace);

  if (!sx.R.is_shared()) {
    // [Read-Write Race] / [Write Exclusive].
    if (!epoch_leq(sx.R, st)) return error(Rule::kReadWriteRace);
    sx.W = e;
    return ok(Rule::kWriteExclusive);
  }
  // [Shared-Write Race] / [Write Shared]: full vector-clock comparison.
  if (!sx.V.leq(st)) return error(Rule::kSharedWriteRace);
  sx.W = e;
  if (rules_ == RuleSet::kOriginalFastTrack) {
    // Original FastTrack forgets the read history on a shared write,
    // dropping back to exclusive-epoch mode. VerifiedFT deliberately does
    // not (Section 3: no measured benefit, and it causes R to thrash
    // between shared and unshared states).
    sx.R = Epoch();
  }
  return ok(Rule::kWriteShared);
}

Spec::StepResult Spec::on_acquire(Tid t, LockId m) {
  VFT_CHECK(!halted_);
  thread_state(t).join(lock_state(m));
  return ok(Rule::kAcquire);
}

Spec::StepResult Spec::on_release(Tid t, LockId m) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  lock_state(m).copy(st);
  st.inc(t);
  return ok(Rule::kRelease);
}

Spec::StepResult Spec::on_vol_read(Tid t, VolId v) {
  VFT_CHECK(!halted_);
  const VectorClock vv = vol_state(v);  // copy: same-map reference hazard
  thread_state(t).join(vv);
  return ok(Rule::kVolRead);
}

Spec::StepResult Spec::on_vol_write(Tid t, VolId v) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  vol_state(v).join(st);
  st.inc(t);
  return ok(Rule::kVolWrite);
}

Spec::StepResult Spec::on_atomic_load(Tid t, VolId a, int mo) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  if (atomics::mo_is_acquire(mo)) {
    // Acquire: St.V := St.V join Sa.V.
    st.join(atomic_state(a));
    return ok(Rule::kAtomicLoad);
  }
  // Relaxed: no edge now; Sa.V feeds the pending-acquire accumulator so a
  // later acquire fence can pick it up (C++ fence-synchronization rule).
  FenceState& f = fence_state(t);
  f.acquire_V.join(atomic_state(a));
  f.has_acquire = true;
  return ok(Rule::kAtomicLoad);
}

Spec::StepResult Spec::on_atomic_store(Tid t, VolId a, int mo) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  if (atomics::mo_is_release(mo)) {
    // Release: Sa.V := Sa.V join St.V (join, not copy: unordered
    // publishers must not lose each other's clocks); St.V := inc_t(St.V).
    atomic_state(a).join(st);
    st.inc(t);
    return ok(Rule::kAtomicStore);
  }
  // Relaxed: publishes only a pending release fence's snapshot.
  FenceState& f = fence_state(t);
  if (f.has_release) atomic_state(a).join(f.release_V);
  return ok(Rule::kAtomicStore);
}

Spec::StepResult Spec::on_atomic_rmw(Tid t, VolId a, int mo) {
  VFT_CHECK(!halted_);
  // Store half first, then load half - the runtime's rmw_pre/rmw_post
  // ordering collapsed into one sequential step.
  VectorClock& st = thread_state(t);
  FenceState& f = fence_state(t);
  if (atomics::mo_is_release(mo)) {
    atomic_state(a).join(st);
    st.inc(t);
  } else if (f.has_release) {
    atomic_state(a).join(f.release_V);
  }
  if (atomics::mo_is_acquire(mo)) {
    st.join(atomic_state(a));
  } else {
    f.acquire_V.join(atomic_state(a));
    f.has_acquire = true;
  }
  return ok(Rule::kAtomicRmw);
}

Spec::StepResult Spec::on_atomic_fence(Tid t, int mo) {
  VFT_CHECK(!halted_);
  VectorClock& st = thread_state(t);
  FenceState& f = fence_state(t);
  // Acquire half before release half, so an acq_rel/seq_cst fence's
  // snapshot includes what its acquire half just joined.
  if (atomics::mo_is_acquire(mo) && f.has_acquire) st.join(f.acquire_V);
  if (atomics::mo_is_release(mo)) {
    f.release_V.copy(st);
    f.has_release = true;
    st.inc(t);
  }
  return ok(Rule::kAtomicFence);
}

Spec::StepResult Spec::on_fork(Tid t, Tid u) {
  VFT_CHECK(!halted_);
  VFT_CHECK(t != u);
  // Materialize both entries first: inserting the second could rehash the
  // map and invalidate a reference to the first.
  thread_state(t);
  thread_state(u);
  VectorClock& st = threads_.at(t);
  VectorClock& su = threads_.at(u);
  su.join(st);
  st.inc(t);
  return ok(Rule::kFork);
}

Spec::StepResult Spec::on_join(Tid t, Tid u) {
  VFT_CHECK(!halted_);
  VFT_CHECK(t != u);
  thread_state(t);
  thread_state(u);
  VectorClock& st = threads_.at(t);
  VectorClock& su = threads_.at(u);
  st.join(su);
  if (rules_ == RuleSet::kOriginalFastTrack) {
    // Original FastTrack increments the joined thread's own clock; the
    // update is unnecessary and VerifiedFT drops it (Section 3).
    su.inc(u);
  }
  return ok(Rule::kJoin);
}

}  // namespace vft
