// Replay: drive the specification or any detector with a trace.
//
// Detector replay is a template (static dispatch, mirroring how the
// runtime calls handlers) and runs sequentially - the trace *is* the
// interleaving, and each handler runs to completion at its trace position.
// This is exactly the setting of the functional-correctness half of the
// Section 6 proof: given serializability (checked separately by the
// small-scope enumeration test), handlers may be reasoned about serially.
//
// Differential use: replay the same feasible trace through the spec and a
// detector and compare (a) whether and where the first race is detected
// and (b) the final analysis state.
#pragma once

#include <condition_variable>
#include <mutex>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"
#include "vft/atomics.h"
#include "vft/shadow_state.h"
#include "vft/spec.h"
#include "vft/stats.h"

namespace vft::trace {

/// Shadow-object store for one detector instance: the runtime system's
/// one-to-one mapping between program entities and state objects
/// (Section 4's "we assume the underlying run-time system maintains...").
template <typename D>
class ShadowStore {
 public:
  ThreadState& thread(Tid t) {
    auto it = threads_.find(t);
    if (it == threads_.end()) {
      it = threads_.emplace(t, std::make_unique<ThreadState>(t)).first;
    }
    return *it->second;
  }

  typename D::VarState& var(VarId x) {
    auto it = vars_.find(x);
    if (it == vars_.end()) {
      auto state = std::make_unique<typename D::VarState>();
      state->id = x;
      it = vars_.emplace(x, std::move(state)).first;
    }
    return *it->second;
  }

  /// Shadow state for a volatile variable: the same AtomicState the
  /// runtime's rt::Volatile and the __tsan_atomic* path keep (Section 7
  /// semantics; common to every detector), driven only through the
  /// detector's two joining edges.
  atomics::AtomicState& vol(std::uint64_t v) {
    auto it = vols_.find(v);
    if (it == vols_.end()) {
      it = vols_.emplace(v, std::make_unique<atomics::AtomicState>()).first;
    }
    return *it->second;
  }

  LockState& lock(LockId m) {
    auto it = locks_.find(m);
    if (it == locks_.end()) {
      it = locks_.emplace(m, std::make_unique<LockState>()).first;
    }
    return *it->second;
  }

 private:
  std::unordered_map<Tid, std::unique_ptr<ThreadState>> threads_;
  std::unordered_map<VarId, std::unique_ptr<typename D::VarState>> vars_;
  std::unordered_map<LockId, std::unique_ptr<LockState>> locks_;
  std::unordered_map<std::uint64_t, std::unique_ptr<atomics::AtomicState>>
      vols_;
};

struct ReplayResult {
  /// Trace index of the first access on which the detector reported a
  /// race; nullopt if the replay was race-free.
  std::optional<std::size_t> first_race;
  /// Total number of handler invocations that reported a race. Detectors
  /// continue after races (Section 7), so this can exceed one.
  std::size_t racy_ops = 0;
};

/// Apply one operation to a detector through its store. Returns the
/// handler verdict (false = race reported).
template <typename D>
bool apply(D& d, ShadowStore<D>& store, const Op& op) {
  switch (op.kind) {
    case OpKind::kRead:
      return d.read(store.thread(op.t), store.var(op.target));
    case OpKind::kWrite:
      return d.write(store.thread(op.t), store.var(op.target));
    case OpKind::kAcquire:
      d.acquire(store.thread(op.t), store.lock(op.target));
      return true;
    case OpKind::kRelease:
      d.release(store.thread(op.t), store.lock(op.target));
      return true;
    case OpKind::kFork:
      d.fork(store.thread(op.t), store.thread(static_cast<Tid>(op.target)));
      return true;
    case OpKind::kJoin:
      d.join(store.thread(op.t), store.thread(static_cast<Tid>(op.target)));
      return true;
    case OpKind::kVolRead:
      d.atomic_join(store.thread(op.t), store.vol(op.target));
      return true;
    case OpKind::kVolWrite:
      d.atomic_publish(store.thread(op.t), store.vol(op.target));
      return true;
  }
  return true;
}

template <typename D>
ReplayResult replay(const Trace& trace, D& d, ShadowStore<D>& store) {
  ReplayResult result;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (!apply(d, store, trace[i])) {
      if (!result.first_race) result.first_race = i;
      result.racy_ops++;
    }
  }
  return result;
}

template <typename D>
ReplayResult replay(const Trace& trace, D& d) {
  ShadowStore<D> store;
  return replay(trace, d, store);
}

/// Concurrent replay: the trace's interleaving is enforced by a turn-based
/// scheduler, but every thread id's handlers run on a dedicated OS thread.
/// The analysis outcome must equal sequential replay's (and the tests
/// check that it does); what this adds is coverage of the *cross-thread*
/// aspects the sequential replayer cannot see - the Section 4 ThreadState
/// phase changes (parent-local -> child-local -> read-only after join)
/// happen across real thread boundaries, so stale-cache or missing-fence
/// bugs in the state handoff would surface here (especially under TSan).
template <typename D>
ReplayResult concurrent_replay(const Trace& trace, D& d) {
  ShadowStore<D> store;
  // Materialize every thread's state up front (the runtime system owns
  // states; creating them mid-run from the wrong thread would itself be a
  // handoff bug we don't want to model).
  std::vector<Tid> tids;
  for (const Op& op : trace) {
    store.thread(op.t);
    if (op.kind == OpKind::kFork || op.kind == OpKind::kJoin) {
      store.thread(static_cast<Tid>(op.target));
    }
  }
  {
    std::unordered_map<Tid, bool> seen;
    for (const Op& op : trace) {
      if (!seen[op.t]) {
        seen[op.t] = true;
        tids.push_back(op.t);
      }
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;
  ReplayResult result;

  std::vector<std::thread> threads;
  threads.reserve(tids.size());
  for (const Tid tid : tids) {
    threads.emplace_back([&, tid] {
      for (;;) {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] {
          return next >= trace.size() || trace[next].t == tid;
        });
        if (next >= trace.size()) return;
        const std::size_t i = next;
        // Run the handler while holding the turn lock: the trace order is
        // the (serial) interleaving under test.
        if (!apply(d, store, trace[i])) {
          if (!result.first_race) result.first_race = i;
          result.racy_ops++;
        }
        next = i + 1;
        cv.notify_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  return result;
}

struct SpecReplayResult {
  /// Index at which the spec transitioned to Error (and halted), if any.
  std::optional<std::size_t> error_index;
  /// The Figure 2 rule fired by each processed operation (stops at Error).
  std::vector<Rule> rules;
};

/// Run the Figure 2 transition system over a trace, halting at Error.
SpecReplayResult replay_spec(const Trace& trace, Spec& spec);

}  // namespace vft::trace
