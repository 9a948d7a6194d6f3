// Instrumented target-program primitives: the RoadRunner analogue.
//
// RoadRunner rewrites JVM bytecode so each memory/sync operation of the
// target runs an event handler inline in the acting thread. C++ offers no
// portable bytecode rewriting, so target programs here are written against
// these wrappers instead (DESIGN.md substitution table): the execution
// model - inline handlers, one shadow object per thread/lock/variable - is
// the same, only the insertion mechanism differs.
//
// Handler ordering follows Section 4: acquire and join handlers run
// *after* the target operation; all others run *before* it.
//
// The target data itself lives in std::atomic cells accessed with relaxed
// ordering (a plain mov on mainstream ISAs). This is how the target can
// legally exhibit the data races the detector is meant to find: a C++
// program with native unsynchronized accesses would be UB, while relaxed
// atomics give TSan-style defined-but-racy behaviour.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <string>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/tool.h"
#include "sched/sched_point.h"
#include "vft/atomics.h"

namespace vft::rt {

/// True when D performs analysis; NullTool configurations skip even the
/// joining edges of the sync wrappers so that base-time runs measure the
/// uninstrumented target.
template <typename D>
inline constexpr bool kInstrumented = !std::is_same_v<D, NullTool>;

/// True when D's VarState can back the packed-cell fast path (all six
/// production detectors; NullTool has nothing to spill to).
template <typename D>
inline constexpr bool kPackedCapable = SpillableVarState<typename D::VarState>;

/// One instrumented scalar variable with an inline shadow VarState: every
/// access calls the detector (the Table 1 benches measure the detectors
/// themselves). For the packed-cell fast path, carve a one-element Array
/// from the runtime's packed space instead.
template <typename T, Detector D>
class Var {
 public:
  explicit Var(Runtime<D>& rt, T initial = T{}, std::uint64_t id = 0)
      : rt_(&rt), data_(initial) {
    // Default id: the shadow VarState's own address - the same scheme
    // Array uses for its element shadows, so ids are consistent across
    // wrapper kinds (see the id taxonomy in vft/report.h).
    shadow_.id = id != 0 ? id : reinterpret_cast<std::uint64_t>(&shadow_);
  }

  T load() {
    rt_->tool().read(rt_->self(), shadow_);
    return data_.load(std::memory_order_relaxed);
  }

  void store(T v) {
    rt_->tool().write(rt_->self(), shadow_);
    data_.store(v, std::memory_order_relaxed);
  }

  /// Uninstrumented access (post-join result collection and the like).
  T raw() const { return data_.load(std::memory_order_relaxed); }

  /// Register a human-readable name for race reports (describe()).
  void set_name(std::string name) {
    if (RaceCollector* rc = rt_->tool().races()) {
      rc->name_var(shadow_.id, std::move(name));
    }
  }

 private:
  Runtime<D>* rt_;
  std::atomic<T> data_;
  typename D::VarState shadow_;
};

/// Instrumented array: one shadow VarState per element (RoadRunner's
/// fine-grained array shadow mode). Shadow lives either inline (private
/// allocation, the default) or carved out of the packed shadow space so
/// that raw-pointer instrumentation of the same memory hits the same
/// cells.
template <typename T, Detector D>
class Array {
 public:
  Array(Runtime<D>& rt, std::size_t n, T initial = T{})
      : rt_(&rt),
        n_(n),
        data_(std::make_unique<std::atomic<T>[]>(n)),
        shadow_(std::make_unique<typename D::VarState[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      data_[i].store(initial, std::memory_order_relaxed);
      shadow_[i].id = reinterpret_cast<std::uint64_t>(&shadow_[i]);
    }
  }

  /// Carve packed cells out of `space`, keyed by each element's address:
  /// element accesses run the same-epoch fast path inline against 8-byte
  /// cells and only escalated elements ever materialize a VarState.
  /// Raw-pointer accesses to &data()[i] through the same space's access()
  /// agree on cell and spill state. Under the space's word granularity, elements
  /// smaller than the shadow word share a cell with their word neighbors.
  Array(Runtime<D>& rt, PackedShadowSpace<D>& space, std::size_t n,
        T initial = T{})
    requires kPackedCapable<D>
      : rt_(&rt),
        n_(n),
        data_(std::make_unique<std::atomic<T>[]>(n)),
        pspace_(&space),
        pslots_(std::make_unique<typename PackedShadowSpace<D>::Slot[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) {
      data_[i].store(initial, std::memory_order_relaxed);
      pslots_[i] = space.slot_of(&data_[i]);
    }
  }

  std::size_t size() const { return n_; }

  T load(std::size_t i) {
    VFT_ASSERT(i < n_);
    if constexpr (kPackedCapable<D>) {
      if (pspace_ != nullptr) {
        pspace_->template access_slot<false>(rt_->tool(), rt_->self(),
                                             pslots_[i]);
        return data_[i].load(std::memory_order_relaxed);
      }
    }
    rt_->tool().read(rt_->self(), shadow(i));
    return data_[i].load(std::memory_order_relaxed);
  }

  void store(std::size_t i, T v) {
    VFT_ASSERT(i < n_);
    if constexpr (kPackedCapable<D>) {
      if (pspace_ != nullptr) {
        pspace_->template access_slot<true>(rt_->tool(), rt_->self(),
                                            pslots_[i]);
        data_[i].store(v, std::memory_order_relaxed);
        return;
      }
    }
    rt_->tool().write(rt_->self(), shadow(i));
    data_[i].store(v, std::memory_order_relaxed);
  }

  /// Uninstrumented access, for target code that operates on provably
  /// thread-private scratch data (matching how real tools exclude
  /// known-local accesses; used sparingly and called out in the kernels).
  T raw(std::size_t i) const { return data_[i].load(std::memory_order_relaxed); }
  void raw_store(std::size_t i, T v) {
    data_[i].store(v, std::memory_order_relaxed);
  }

  /// Register element names "name[i]" for race reports. Uses shadow_id()
  /// so a packed array's cells are not escalated just to be named.
  void set_name(const std::string& name) {
    if (RaceCollector* rc = rt_->tool().races()) {
      for (std::size_t i = 0; i < n_; ++i) {
        rc->name_var(shadow_id(i), name + "[" + std::to_string(i) + "]");
      }
    }
  }

  /// The element's VarState. In packed mode this force-escalates the cell
  /// first, so external probes always observe coherent detector state.
  typename D::VarState& shadow(std::size_t i) {
    if constexpr (kPackedCapable<D>) {
      if (pspace_ != nullptr) return pspace_->escalated(pslots_[i]);
    }
    return shadow_[i];
  }

  /// The element's race-report id, without materializing any spill state.
  std::uint64_t shadow_id(std::size_t i) const {
    if constexpr (kPackedCapable<D>) {
      if (pspace_ != nullptr) return pslots_[i].id;
    }
    return shadow_[i].id;
  }

  /// The element storage, for raw-pointer instrumentation of the same
  /// memory (meaningful with the packed-carving constructor).
  std::atomic<T>* data() { return data_.get(); }

 private:
  Runtime<D>* rt_;
  std::size_t n_;
  std::unique_ptr<std::atomic<T>[]> data_;
  std::unique_ptr<typename D::VarState[]> shadow_;  // inline mode
  PackedShadowSpace<D>* pspace_ = nullptr;          // packed mode
  std::unique_ptr<typename PackedShadowSpace<D>::Slot[]> pslots_;
};

/// Instrumented mutex: a real std::mutex plus the LockState shadow.
template <Detector D>
class Mutex {
 public:
  explicit Mutex(Runtime<D>& rt) : rt_(&rt) {}

  void lock() {
    mu_.lock();
    rt_->tool().acquire(rt_->self(), shadow_);  // handler after the acquire
  }

  void unlock() {
    rt_->tool().release(rt_->self(), shadow_);  // handler before the release
    mu_.unlock();
  }

  LockState& shadow() { return shadow_; }
  std::mutex& native() { return mu_; }

 private:
  Runtime<D>* rt_;
  std::mutex mu_;
  LockState shadow_;
};

/// RAII guard for Mutex.
template <Detector D>
class Guard {
 public:
  explicit Guard(Mutex<D>& m) : m_(&m) { m_->lock(); }
  ~Guard() { m_->unlock(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  Mutex<D>* m_;
};

/// Instrumented Java-style volatile variable (Section 7, "Additional
/// Synchronization Primitives"): a store is the detector's release edge
/// (Sv.V := Sv.V join St.V; inc_t) and a load its acquire edge
/// (St.V := St.V join Sv.V) over one AtomicState, with the fast-epoch
/// skip of DetectorBase::atomic_join.
///
/// Ordering: store publishes before the value's release-store and load
/// joins after the value's acquire-load, so a reader joins a clock at
/// least as recent as the store whose value it saw. An armed epoch staler
/// than the latest store linearizes the read before the store whose value
/// has not landed yet (the §5-style argument of the detector handlers).
template <typename T, Detector D>
class Volatile {
 public:
  explicit Volatile(Runtime<D>& rt, T initial = T{})
      : rt_(&rt), data_(initial) {}

  T load() {
    VFT_SCHED_POINT(kLoad, &data_);
    const T v = data_.load(std::memory_order_acquire);
    if constexpr (kInstrumented<D>) {
      rt_->tool().atomic_join(rt_->self(), sync_);
      bump_rule(rt_->tool(), Rule::kVolRead);
    }
    return v;
  }

  void store(T v) {
    bool value_published = false;
    if constexpr (kInstrumented<D>) {
#ifdef VFT_SCHED
      // Seeded-bug hook (sched mutation smoke test): the value lands
      // before the publication arms, so a reader can pair it with a stale
      // armed epoch it already covers, skip the join and report a false
      // race on a location this volatile was supposed to order.
      if (sched::Mutations::volatile_value_before_arm.load(
              std::memory_order_relaxed)) {
        VFT_SCHED_POINT(kStore, &data_);
        data_.store(v, std::memory_order_release);
        value_published = true;
      }
#endif
      rt_->tool().atomic_publish(rt_->self(), sync_);
      bump_rule(rt_->tool(), Rule::kVolWrite);
    }
    if (!value_published) {
      VFT_SCHED_POINT(kStore, &data_);
      data_.store(v, std::memory_order_release);
    }
  }

 private:
  Runtime<D>* rt_;
  atomics::AtomicState sync_;
  std::atomic<T> data_;
};

/// Instrumented cyclic barrier for a fixed party count: every operation
/// before any arrival happens-before every operation after the matching
/// departure (Section 7). An arrival publishes into its round's
/// AtomicState (joining: arrivals are unordered; the publication starts
/// the thread's next epoch) and the departure joins it. Two states
/// alternate by phase parity and are never reset: a round-p+2 arrival
/// cannot publish before every leaver of round p has arrived at round
/// p+1, after its departure join, so a slow leaver never joins a fast
/// thread's next-round work (docs/ALGORITHM.md §6).
template <Detector D>
class Barrier {
 public:
  Barrier(Runtime<D>& rt, std::uint32_t parties)
      : rt_(&rt), parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock lk(mu_);
    const std::uint64_t my_phase = phase_;
    atomics::AtomicState& round = round_[my_phase & 1];
    if constexpr (kInstrumented<D>) {
      rt_->tool().atomic_publish(rt_->self(), round);
    }
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return phase_ != my_phase; });
    }
    lk.unlock();
    if constexpr (kInstrumented<D>) {
      rt_->tool().atomic_join(rt_->self(), round);
      bump_rule(rt_->tool(), Rule::kBarrier);
    }
  }

 private:
  Runtime<D>* rt_;
  const std::uint32_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  atomics::AtomicState round_[2];  // indexed by phase parity
  std::uint32_t arrived_ = 0;
  std::uint64_t phase_ = 0;
};

/// Instrumented condition variable over an instrumented Mutex. The
/// analysis sees wait as release + (re)acquire of the monitor, exactly the
/// wait/notify treatment of Section 7; notify itself is not an event
/// (ordering flows through the monitor).
template <Detector D>
class CondVar {
 public:
  explicit CondVar(Runtime<D>& rt) : rt_(&rt) {}

  template <typename Pred>
  void wait(Mutex<D>& m, Pred pred) {
    while (!pred()) {
      rt_->tool().release(rt_->self(), m.shadow());  // before releasing
      std::unique_lock lk(m.native(), std::adopt_lock);
      cv_.wait(lk);
      lk.release();  // keep the native mutex held; we reacquired it
      rt_->tool().acquire(rt_->self(), m.shadow());  // after reacquiring
    }
  }

  void notify_all() { cv_.notify_all(); }
  void notify_one() { cv_.notify_one(); }

 private:
  Runtime<D>* rt_;
  std::condition_variable cv_;
};

/// Instrumented thread. The fork handler runs in the parent *before* the
/// child starts (while the child's ThreadState is still parent-local); the
/// join handler runs in the joiner *after* the native join (when the
/// child's state is read-only). Section 4's discipline, verbatim.
template <Detector D>
class Thread {
 public:
  template <typename Fn>
  Thread(Runtime<D>& rt, Fn fn) : rt_(&rt), child_(&rt.registry().create()) {
    rt_->tool().fork(rt_->self(), *child_);
    native_ = std::thread([this, fn = std::move(fn)]() mutable {
      Registry::ThreadScope scope(*child_);
      fn();
    });
  }

  ~Thread() { VFT_CHECK(!native_.joinable()); }  // must be joined explicitly

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  void join() {
    native_.join();
    rt_->tool().join(rt_->self(), *child_);
    rt_->registry().retire(*child_);
  }

  ThreadState& state() { return *child_; }

 private:
  Runtime<D>* rt_;
  ThreadState* child_;
  std::thread native_;
};

/// Fork `n` workers running fn(worker_index) and join them all: the
/// ubiquitous parallel-kernel shape.
template <Detector D, typename Fn>
void parallel_for_threads(Runtime<D>& rt, std::uint32_t n, Fn fn) {
  std::vector<std::unique_ptr<Thread<D>>> workers;
  workers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    workers.push_back(std::make_unique<Thread<D>>(rt, [fn, i] { fn(i); }));
  }
  for (auto& w : workers) w->join();
}

}  // namespace vft::rt
