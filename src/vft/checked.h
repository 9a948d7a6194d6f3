// Checked<D>: an invariant-validating decorator around any epoch detector.
//
// Wraps each handler call and asserts, afterwards, the data invariants the
// Section 5/6 argument relies on (the ones CIVL encodes as layer
// invariants):
//
//   1. W advances only to the acting thread's current epoch (or is
//      untouched): after write(st, x), W is old-W or E_t.
//   2. R is either a well-formed epoch or SHARED; under the VerifiedFT
//      rules SHARED is absorbing ("a VarState object that has entered
//      Shared mode remains in Shared mode" - Section 6). The original
//      FastTrack rules deliberately violate absorption ([Write Shared]
//      resets R), so the check is configurable.
//   3. The acting thread's clock never decreases across any handler, and
//      its own component is untouched by read/write handlers.
//   4. The handler verdict is consistent with the collector: false iff
//      the report count grew.
//
// Intended for *serialized* analysis runs (trace replay, single-threaded
// debugging): the before/after snapshots assume no concurrent handler is
// mutating the same VarState, so do not wrap detectors driven by truly
// parallel targets. It satisfies the same Detector concept, so the trace
// harnesses run Checked<VftV2> unchanged.
#pragma once

#include "vft/detector_base.h"
#include "vft/probe.h"

namespace vft {

template <typename D>
  requires ProbeableVarState<typename D::VarState>
class Checked {
 public:
  static constexpr const char* kName = "Checked";

  using VarState = typename D::VarState;

  explicit Checked(D inner, bool shared_is_absorbing = true)
      : inner_(std::move(inner)), absorbing_(shared_is_absorbing) {}

  bool read(ThreadState& st, VarState& sx) {
    const Snapshot before = snap(st, sx);
    const bool ok = inner_.read(st, sx);
    check_common(before, st, sx, ok);
    // A read never changes W.
    VFT_CHECK(probe_w(sx) == before.w);
    return ok;
  }

  bool write(ThreadState& st, VarState& sx) {
    const Snapshot before = snap(st, sx);
    const bool ok = inner_.write(st, sx);
    check_common(before, st, sx, ok);
    // Invariant 1: W is old or the actor's epoch.
    const Epoch w = probe_w(sx);
    VFT_CHECK(w == before.w || w == st.epoch());
    return ok;
  }

  void acquire(ThreadState& st, LockState& sm) {
    const VectorClock before = st.V;
    inner_.acquire(st, sm);
    VFT_CHECK(before.leq(st.V));  // invariant 3: clocks only grow
  }

  void release(ThreadState& st, LockState& sm) {
    const VectorClock before = st.V;
    inner_.release(st, sm);
    VFT_CHECK(before.leq(st.V));
    VFT_CHECK(st.epoch() == before.get(st.t).inc());  // new epoch exactly
  }

  void fork(ThreadState& st, ThreadState& su) {
    const VectorClock before = st.V;
    inner_.fork(st, su);
    VFT_CHECK(before.leq(st.V));
    VFT_CHECK(before.leq(su.V));  // child knows everything the parent did
  }

  void join(ThreadState& st, ThreadState& su) {
    const VectorClock before = st.V;
    inner_.join(st, su);
    VFT_CHECK(before.leq(st.V));
    VFT_CHECK(su.V.leq(st.V));  // joiner absorbed the child's clock
  }

  void atomic_join(ThreadState& st, atomics::AtomicState& sa) {
    const VectorClock before = st.V;
    inner_.atomic_join(st, sa);
    VFT_CHECK(before.leq(st.V));
    VFT_CHECK(sa.sync_V.leq(st.V));  // skipped or not, Sa.V is absorbed
  }

  void atomic_publish(ThreadState& st, atomics::AtomicState& sa) {
    const VectorClock before = st.V;
    inner_.atomic_publish(st, sa);
    VFT_CHECK(before.leq(st.V));
    VFT_CHECK(st.epoch() == before.get(st.t).inc());  // new epoch exactly
    VFT_CHECK(before.leq(sa.sync_V));  // publisher's clock is in Sa.V
  }

  D& inner() { return inner_; }
  RaceCollector* races() const { return inner_.races(); }

 private:
  struct Snapshot {
    Epoch r, w;
    Epoch actor_component;
    std::size_t reports;
  };

  Snapshot snap(ThreadState& st, VarState& sx) {
    return Snapshot{probe_r(sx), probe_w(sx), st.V.get(st.t),
                    inner_.races() != nullptr ? inner_.races()->count() : 0};
  }

  void check_common(const Snapshot& before, ThreadState& st, VarState& sx,
                    bool ok) {
    // Invariant 2: SHARED absorption (VerifiedFT rules only).
    if (absorbing_ && before.r.is_shared()) {
      VFT_CHECK(probe_r(sx).is_shared());
    }
    // Invariant 3: access handlers never move the actor's own clock.
    VFT_CHECK(st.V.get(st.t) == before.actor_component);
    // Invariant 4: verdict matches reporting.
    if (inner_.races() != nullptr) {
      const std::size_t now = inner_.races()->count();
      if (ok) {
        VFT_CHECK(now == before.reports);
      } else {
        VFT_CHECK(now > before.reports);
      }
    }
  }

  D inner_;
  bool absorbing_;
};

}  // namespace vft
