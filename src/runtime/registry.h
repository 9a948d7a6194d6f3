// Thread registry: the runtime-system half of Section 4's assumption that
// there is a one-to-one mapping between target threads and ThreadState
// objects, and that each handler runs in the thread performing the
// operation.
//
// The registry allocates dense thread ids, owns the ThreadState objects,
// and tracks the calling thread's identity in a thread_local (set while a
// target thread is "entered" into a runtime). Thread ids of joined threads
// are reused - the successor's vector clock continues the predecessor's
// (see ThreadState's reuse constructor for the precision tradeoff) - so a
// long-running target can create far more than Epoch::kMaxTid threads as
// long as no more than kMaxTid+1 are live at once.
//
// Two binding styles share the thread_local:
//   ThreadScope  RAII, nestable - the wrapper (rt::Thread) and test style.
//   bind()       persistent - the ABI/interposer style, where a target
//                thread's lifetime is not a C++ scope (it attaches at its
//                first event and unbinds when the OS thread exits).
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "vft/assert.h"
#include "vft/shadow_state.h"

namespace vft::rt {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The calling thread's ThreadState (set by ThreadScope or bind()).
  /// Handlers use this to find "st" without threading it through target
  /// code.
  static ThreadState* current() { return tl_self_; }

  /// Persistently (re)bind the calling OS thread to `ts` (nullptr to
  /// unbind). The ABI attach/detach path uses this: unlike ThreadScope
  /// there is no enclosing scope whose exit could restore a previous
  /// binding - the OS thread *is* the target thread until it exits.
  static void bind(ThreadState* ts) { tl_self_ = ts; }

  /// Allocate a ThreadState: a retired slot's successor if one is free,
  /// else a fresh tid. Returns nullptr when every tid in [0, kMaxTid] is
  /// currently live - the caller decides whether that is fatal (create())
  /// or degrades gracefully (the ABI leaves the thread unmonitored).
  /// Thread-safe (forks may be concurrent).
  ThreadState* try_create() {
    std::scoped_lock lk(mu_);
    if (!free_.empty()) {
      const Tid t = free_.back();
      free_.pop_back();
      auto fresh = std::make_unique<ThreadState>(t, slots_[t]->V);
      // Park the predecessor instead of freeing it: a stale retire() of a
      // reused slot must be *detectable* (identity check below), which
      // requires the stale reference to stay readable - and the successor
      // must never be handed the predecessor's address by the allocator.
      // One parked state per slot: parking frees the slot's previous
      // predecessor, which no caller references once its own successor
      // retired (the session drops a thread's record when its slot
      // retires).
      parked_[t] = std::move(slots_[t]);
      slots_[t] = std::move(fresh);
      live_[t] = true;
      return slots_[t].get();
    }
    if (slots_.size() > Epoch::kMaxTid) return nullptr;
    const Tid t = static_cast<Tid>(slots_.size());
    slots_.push_back(std::make_unique<ThreadState>(t));
    parked_.emplace_back();
    live_.push_back(true);
    return slots_.back().get();
  }

  /// Allocate a ThreadState, failing loudly with an actionable diagnostic
  /// when the live-thread population exhausts the tid space.
  ThreadState& create() {
    ThreadState* ts = try_create();
    if (ts == nullptr) {
      detail::fatal(
          "thread registry exhausted: %u target threads are live at once, "
          "but epochs pack thread ids into %d bits (Epoch::kMaxTid = %u, "
          "so at most %u concurrently-live threads). Join or detach "
          "finished threads so their tid slots can be reused - total "
          "thread count is unbounded, only the live population is capped.",
          static_cast<unsigned>(Epoch::kMaxTid) + 1, Epoch::kTidBits,
          static_cast<unsigned>(Epoch::kMaxTid),
          static_cast<unsigned>(Epoch::kMaxTid) + 1);
    }
    return *ts;
  }

  /// Return a joined (or detached-and-exited) thread's slot to the free
  /// list. The caller must have already run the join handler; the state
  /// object stays alive (its final VC seeds the slot's next occupant, and
  /// after reuse it is parked, until the slot's next reuse, so stale
  /// references remain readable).
  /// Retiring the same live slot twice would hand one tid to two live
  /// threads, and retiring a parked predecessor would retire its live
  /// successor's slot out from under it - both rejected with a
  /// diagnostic: the slot must currently be live AND owned by `ts`
  /// itself, not a successor.
  void retire(const ThreadState& ts) {
    std::scoped_lock lk(mu_);
    if (ts.t >= live_.size() || !live_[ts.t] ||
        slots_[ts.t].get() != &ts) {
      detail::fatal(
          "double retire of thread slot %u: this ThreadState was already "
          "retired (its tid may even be re-used by a live successor). "
          "Retire a thread exactly once - from its join, or from its exit "
          "when detached, never both (see the lifecycle protocol in "
          "docs/ALGORITHM.md s12).",
          static_cast<unsigned>(ts.t));
    }
    live_[ts.t] = false;
    free_.push_back(ts.t);
  }

  /// Number of tids ever allocated (for tests).
  std::size_t slots_in_use() const {
    std::scoped_lock lk(mu_);
    return slots_.size();
  }

  /// Number of currently live (not retired) slots.
  std::size_t live_count() const {
    std::scoped_lock lk(mu_);
    return slots_.size() - free_.size();
  }

  /// RAII: marks the calling OS thread as running target thread `ts` for
  /// the duration of the scope. Nestable (restores the previous binding),
  /// which lets a bench harness run several runtimes from one main thread.
  class ThreadScope {
   public:
    explicit ThreadScope(ThreadState& ts) : prev_(tl_self_) { tl_self_ = &ts; }
    ~ThreadScope() { tl_self_ = prev_; }
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    ThreadState* prev_;
  };

 private:
  /// constinit: every TU reads the slot directly, not via a TLS wrapper.
  inline static constinit thread_local ThreadState* tl_self_ = nullptr;

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<ThreadState>> slots_;
  std::vector<bool> live_;  ///< per-tid: allocated and not retired
  std::vector<Tid> free_;
  /// Per tid: the predecessor the slot's last reuse displaced, kept alive
  /// so a stale retire() is a diagnosed error instead of a use-after-free.
  std::deque<std::unique_ptr<ThreadState>> parked_;
};

}  // namespace vft::rt
