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
#include "vft/vector_clock.h"

namespace vft::rt {

/// True when D performs analysis; NullTool configurations skip even the
/// inline vector-clock work of Volatile/Barrier so that base-time runs
/// measure the uninstrumented target.
template <typename D>
inline constexpr bool kInstrumented = !std::is_same_v<D, NullTool>;

/// Bump a RuleStats counter through a tool that exposes one (the
/// DetectorBase family); a no-op for tools without a stats() accessor.
/// Lets the wrappers count the Section 7 sync extras (volatile accesses,
/// barrier arrivals) that bypass the detector's handler interface.
template <typename Tool>
inline void count_sync_rule(Tool& tool, Rule r) {
  if constexpr (requires { tool.stats(); }) {
    if (RuleStats* s = tool.stats()) s->bump(r);
  }
}

/// True when D's VarState can back the packed-cell fast path (all six
/// production detectors; NullTool has nothing to spill to).
template <typename D>
inline constexpr bool kPackedCapable = SpillableVarState<typename D::VarState>;

/// One instrumented scalar variable with an inline shadow VarState.
///
/// With `packed = true` (and a spill-capable detector), accesses first run
/// the vft/packed_cell.h fast path against an inline 64-bit cell and only
/// escalation calls the detector on the inline VarState - the spill target
/// pre-exists, so escalation is just inject + publish. Default off: the
/// Table 1 benches measure the detectors themselves, so removing their
/// calls must be an explicit choice, not a silent one.
template <typename T, Detector D>
class Var {
 public:
  explicit Var(Runtime<D>& rt, T initial = T{}, std::uint64_t id = 0,
               bool packed = false)
      : rt_(&rt), packed_(packed && kPackedCapable<D>), data_(initial) {
    // Default id: the shadow VarState's own address - the same scheme
    // Array uses for its element shadows, so ids are consistent across
    // wrapper kinds (see the id taxonomy in vft/report.h).
    shadow_.id = id != 0 ? id : reinterpret_cast<std::uint64_t>(&shadow_);
  }

  T load() {
    if constexpr (kPackedCapable<D>) {
      if (packed_) {
        packed_access<false>(rt_->tool(), rt_->self(), cell_, spill_target(),
                             spill_target());
        return data_.load(std::memory_order_relaxed);
      }
    }
    rt_->tool().read(rt_->self(), shadow_);
    return data_.load(std::memory_order_relaxed);
  }

  void store(T v) {
    if constexpr (kPackedCapable<D>) {
      if (packed_) {
        packed_access<true>(rt_->tool(), rt_->self(), cell_, spill_target(),
                            spill_target());
        data_.store(v, std::memory_order_relaxed);
        return;
      }
    }
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

  /// In packed mode the cell is force-escalated first, so external probes
  /// always observe coherent detector state.
  typename D::VarState& shadow() {
    if constexpr (kPackedCapable<D>) {
      if (packed_) escalate_cell(cell_, spill_target(), spill_target());
    }
    return shadow_;
  }

  /// The packed cell (tests; meaningful only in packed mode).
  PackedCell& cell() { return cell_; }

 private:
  auto spill_target() {
    return [this]() -> typename D::VarState& { return shadow_; };
  }

  Runtime<D>* rt_;
  const bool packed_;
  PackedCell cell_;
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

/// Tid headroom the sync wrappers pre-size their clocks for beyond the
/// registry's current high-water mark, so clocks of wrappers constructed
/// before the workers fork still cover the usual worker counts without
/// ever reallocating under the wrapper's lock.
inline constexpr std::uint32_t kPresizeTids = 64;

/// Instrumented Java-style volatile variable. Reads and writes are
/// synchronization operations: a write publishes the writer's clock
/// (release-like: Sv.V := Sv.V join St.V; inc_t), a read acquires it
/// (St.V := St.V join Sv.V) - the standard FastTrack treatment mentioned
/// in Section 7 ("Additional Synchronization Primitives").
///
/// Fast path (the FastTrack volatile-epoch optimization): a store whose
/// thread's clock dominates vc_ leaves vc_ == that thread's clock, and
/// publishes the storing epoch t@c in fast_epoch_. A reader that already
/// knows t@c (its V[t] >= c) is ordered after that store - each epoch
/// contains at most one clock publication, so knowing t@c implies having
/// absorbed the publication's full clock - hence vc_ <= its own clock
/// already and the locked join would be a no-op: skip it entirely. When
/// the storing clock does not dominate vc_ (several unordered writers),
/// fast_epoch_ is set to SHARED and every reader takes the locked join.
///
/// Ordering: fast_epoch_ is updated under the lock *before* the value's
/// release-store, and readers load it *after* the value's acquire-load,
/// so the epoch a reader checks is at least as recent as the store whose
/// value it observed. A reader may still see an epoch staler than the
/// globally latest store - that linearizes the read before the store
/// whose value has not yet landed, a valid serialization of the two
/// overlapping volatile operations (same §5-style argument the detector
/// handlers rely on).
template <typename T, Detector D>
class Volatile {
 public:
  explicit Volatile(Runtime<D>& rt, T initial = T{}, bool fast_path = true)
      : rt_(&rt), fast_path_(fast_path), data_(initial) {
    if constexpr (kInstrumented<D>) {
      vc_.reserve(std::max(rt.registry().capacity(), kPresizeTids));
    }
  }

  T load() {
    // Read the value first, then acquire the clock: a writer joins vc_
    // *before* its release-store, so any stored value we observe has its
    // writer's clock already merged into vc_ by the time we lock. The
    // reverse order has a window (join, writer publishes, we load the new
    // value without its clock) that manifests as false positives on reads
    // the volatile was supposed to order.
    VFT_SCHED_POINT(kLoad, &data_);
    const T v = data_.load(std::memory_order_acquire);
    if constexpr (kInstrumented<D>) {
      VFT_SCHED_POINT(kLoad, &fast_epoch_);
      const Epoch fe = fast_epoch_.load(std::memory_order_acquire);
      ThreadState& st = rt_->self();
      if (fe.is_shared() || !vft::leq(fe, st.V.get(fe.tid()))) {
        // Slow path: the locked join, publish-before-release order as
        // above.
        std::scoped_lock lk(mu_);
        st.join(vc_);
      }  // else [Volatile Same Epoch]: vc_ <= st.V already, join skipped
      count_sync_rule(rt_->tool(), Rule::kVolRead);
    }
    return v;
  }

  void store(T v) {
    bool value_published = false;
    if constexpr (kInstrumented<D>) {
      {
        std::scoped_lock lk(mu_);
        ThreadState& st = rt_->self();
        const bool dominated = vc_.leq(st.V);
        vc_.join(st.V);
        const Epoch e = st.epoch();
        st.inc();
        const Epoch armed =
            dominated && fast_path_ ? e : Epoch::shared();
#ifdef VFT_SCHED
        // Seeded-bug hook (sched mutation smoke test): publish the value
        // *before* arming, the interleaving that dropping the arm->value
        // ordering below would allow. A reader can then pair a fresh
        // value with a stale armed epoch it already covers, skip the
        // join, and report a false race on a location this volatile was
        // supposed to order.
        if (sched::Mutations::volatile_value_before_arm.load(
                std::memory_order_relaxed)) {
          VFT_SCHED_POINT(kStore, &data_);
          data_.store(v, std::memory_order_release);
          value_published = true;
        }
#endif
        // Enable the read fast path only when vc_ collapsed to exactly
        // this thread's clock; must precede the value store below.
        VFT_SCHED_POINT(kStore, &fast_epoch_);
        fast_epoch_.store(armed, std::memory_order_release);
      }
      count_sync_rule(rt_->tool(), Rule::kVolWrite);
    }
    if (!value_published) {
      VFT_SCHED_POINT(kStore, &data_);
      data_.store(v, std::memory_order_release);
    }
  }

 private:
  Runtime<D>* rt_;
  const bool fast_path_;  // false: always take the locked join (benching)
  SchedMutex mu_;  // protects vc_ (multiple readers/writers synchronize)
  VectorClock vc_;
  // SHARED disables the fast path; otherwise the epoch of the last store,
  // valid only because that store's clock dominated vc_.
  std::atomic<Epoch> fast_epoch_{Epoch::shared()};
  std::atomic<T> data_;
};

/// Instrumented cyclic barrier for a fixed party count. Happens-before:
/// every operation before any arrival happens-before every operation after
/// the corresponding departure (all-to-all), modeled by joining all
/// arrivals' clocks and re-acquiring the merged clock on departure, then
/// starting a fresh epoch (as in the barrier support of the standard
/// FastTrack implementations, Section 7).
template <Detector D>
class Barrier {
 public:
  Barrier(Runtime<D>& rt, std::uint32_t parties)
      : rt_(&rt), parties_(parties) {
    if constexpr (kInstrumented<D>) {
      // Pre-size both clocks: a phase flip under mu_ must never touch the
      // allocator (it runs with every party blocked on it).
      const std::uint32_t n =
          std::max(rt.registry().capacity(), kPresizeTids);
      gather_.reserve(n);
      released_.reserve(n);
    }
  }

  void arrive_and_wait() {
    std::unique_lock lk(mu_);
    if constexpr (kInstrumented<D>) gather_.join(rt_->self().V);
    const std::uint64_t my_phase = phase_;
    if (++arrived_ == parties_) {
      released_ = gather_;
      gather_.reset();  // keeps the reserved capacity
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lk, [&] { return phase_ != my_phase; });
    }
    if constexpr (kInstrumented<D>) {
      ThreadState& st = rt_->self();
      st.join(released_);
      st.inc();  // departures start a new epoch, like a release
      count_sync_rule(rt_->tool(), Rule::kBarrier);
    }
  }

 private:
  Runtime<D>* rt_;
  const std::uint32_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  VectorClock gather_;    // accumulating arrivals for the current phase
  VectorClock released_;  // merged clock of the last completed phase
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
