// Additional synchronization primitives (Section 7, "Additional
// Synchronization Primitives"): reader-writer locks, reentrant mutexes
// (Java monitors are reentrant; only the outermost enter/exit is an
// analysis event), and once-initialization capturing the happens-before
// edge between a static initializer and every later use. The reentrant
// mutex runs on the [Acquire]/[Release] handlers; the other two, like
// rt::Volatile and rt::Barrier, keep no clock of their own and run on the
// detector's two joining edges (DetectorBase::atomic_publish/atomic_join)
// over one AtomicState per sync object.
#pragma once

#include <shared_mutex>

#include "runtime/instrument.h"

namespace vft::rt {

/// Instrumented reader-writer lock with the standard FastTrack-style
/// happens-before treatment, on the detector's two joining edges over two
/// AtomicStates:
///   write-unlock publishes the writer's clock into w_;
///   write-lock joins w_ and r_;
///   read-unlock publishes the reader's clock into r_ (readers don't order
///   each other - they only order against later writers, and the join
///   keeps every unordered reader's clock);
///   read-lock joins w_ only.
/// r_ is never reset: a writer that joined it published a dominating clock
/// into w_, so the older readers it holds add nothing to a later join.
template <Detector D>
class SharedMutex {
 public:
  explicit SharedMutex(Runtime<D>& rt) : rt_(&rt) {}

  void lock() {  // writer
    mu_.lock();
    if constexpr (kInstrumented<D>) {
      ThreadState& st = rt_->self();
      rt_->tool().atomic_join(st, w_);
      rt_->tool().atomic_join(st, r_);
    }
  }

  void unlock() {
    if constexpr (kInstrumented<D>) {
      rt_->tool().atomic_publish(rt_->self(), w_);
    }
    mu_.unlock();
  }

  void lock_shared() {  // reader
    mu_.lock_shared();
    if constexpr (kInstrumented<D>) rt_->tool().atomic_join(rt_->self(), w_);
  }

  void unlock_shared() {
    if constexpr (kInstrumented<D>) {
      rt_->tool().atomic_publish(rt_->self(), r_);
    }
    mu_.unlock_shared();
  }

 private:
  Runtime<D>* rt_;
  std::shared_mutex mu_;
  atomics::AtomicState w_;  // writers' release clock
  atomics::AtomicState r_;  // joined readers' release clocks
};

template <Detector D>
class SharedGuard {
 public:
  explicit SharedGuard(SharedMutex<D>& m) : m_(&m) { m_->lock_shared(); }
  ~SharedGuard() { m_->unlock_shared(); }
  SharedGuard(const SharedGuard&) = delete;
  SharedGuard& operator=(const SharedGuard&) = delete;

 private:
  SharedMutex<D>* m_;
};

/// Instrumented reentrant mutex. Nested acquires by the holder are not
/// analysis events (RoadRunner filters reentrant monitor operations the
/// same way) - only the outermost enter runs the acquire handler and only
/// the outermost exit runs the release handler.
template <Detector D>
class RecursiveMutex {
 public:
  explicit RecursiveMutex(Runtime<D>& rt) : rt_(&rt) {}

  void lock() {
    mu_.lock();
    if (depth_++ == 0) {
      rt_->tool().acquire(rt_->self(), shadow_);
    }
  }

  void unlock() {
    VFT_CHECK(depth_ > 0);
    if (--depth_ == 0) {
      rt_->tool().release(rt_->self(), shadow_);
    }
    mu_.unlock();
  }

  /// Current nesting depth as seen by the holder (testing aid).
  int depth() const { return depth_; }

 private:
  Runtime<D>* rt_;
  std::recursive_mutex mu_;
  // depth_ is only accessed while mu_ is held, i.e. by the owner.
  int depth_ = 0;
  LockState shadow_;
};

/// Once-initialization with the Section 7 static-initializer ordering: the
/// initializer's effects happen-before every get(). The initializer
/// publishes into an AtomicState and every get() joins it; once a caller
/// knows the initializer's epoch, the fast-epoch skip makes get() one
/// acquire load of the ready flag and one of the armed epoch.
template <typename T, Detector D>
class Once {
 public:
  explicit Once(Runtime<D>& rt) : rt_(&rt) {}

  /// Runs `init` exactly once (first caller); every caller returns the
  /// value ordered after the initializer.
  template <typename Fn>
  T& get(Fn&& init) {
    if (!ready_.load(std::memory_order_acquire)) {
      std::scoped_lock lk(mu_);
      if (!ready_.load(std::memory_order_relaxed)) {
        value_ = init();
        if constexpr (kInstrumented<D>) {
          rt_->tool().atomic_publish(rt_->self(), init_);
        }
        ready_.store(true, std::memory_order_release);
      }
    }
    if constexpr (kInstrumented<D>) rt_->tool().atomic_join(rt_->self(), init_);
    return value_;
  }

  bool initialized() const { return ready_.load(std::memory_order_acquire); }

 private:
  Runtime<D>* rt_;
  std::atomic<bool> ready_{false};
  std::mutex mu_;  // serializes the initializer, not a clock
  atomics::AtomicState init_;
  T value_{};
};

}  // namespace vft::rt
