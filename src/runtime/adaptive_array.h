// Dynamic-granularity array shadow: the adaptive refinement of coarse
// shadowing surveyed in Section 9 ("Efficient Data Race Detection for
// C/C++ Programs Using Dynamic Granularity"). While a granule of G
// elements is only ever touched by one thread, a single VarState shadows
// all of it (G-fold cheaper in memory and checks); the moment a *second*
// thread touches the granule, it is split into per-element VarStates that
// inherit the granule's epoch history, so precision from then on equals
// the fine-grained array - without CoarseArray's false alarms.
//
// Split protocol: every access first loads the granule's element-table
// pointer (acquire). Non-null -> fine-grained path. Null -> compare the
// granule's owner (atomic tid; claimed by CAS on first touch): the owner
// stays on the coarse path; any other thread performs the split under the
// granule's split mutex - allocate element states, inject the granule's
// (R, W) into each, publish the table (release) - then proceeds on its
// element. The granule state is still epoch-mode at that point (only the
// owner has touched it), so injection is exact.
//
// Precision caveat (inherent to the technique and documented by its
// authors): an owner access that is in flight *during* the split races
// with the split's snapshot; its bookkeeping may land in the granule state
// after the copy and be forgotten. The window is one access wide; the
// tests drive the split from quiescent points where the semantics are
// exact.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "runtime/tool.h"
#include "vft/probe.h"

namespace vft::rt {

template <typename T, Detector D>
  requires ProbeableVarState<typename D::VarState>
class AdaptiveArray {
 public:
  /// With `packed = true`, the coarse (owner-only) path runs the packed
  /// cell fast path against a per-granule cell instead of calling the
  /// detector on the coarse VarState: the owner's accesses are always
  /// ordered after its own history, so they stay inline until the granule
  /// splits; split() then snapshots {R, W} from the cell. Opt-in like the
  /// other wrappers' packed modes.
  AdaptiveArray(Runtime<D>& rt, std::size_t n, std::size_t granule,
                T initial = T{}, bool packed = false)
      : rt_(&rt),
        packed_(packed),
        n_(n),
        granule_(granule == 0 ? 1 : granule),
        data_(std::make_unique<std::atomic<T>[]>(n)),
        granules_(std::make_unique<Granule[]>(num_granules())) {
    for (std::size_t i = 0; i < n; ++i) {
      data_[i].store(initial, std::memory_order_relaxed);
    }
    for (std::size_t g = 0; g < num_granules(); ++g) {
      granules_[g].coarse.id = reinterpret_cast<std::uint64_t>(&granules_[g]);
    }
  }

  std::size_t size() const { return n_; }

  T load(std::size_t i) {
    access(i, /*is_write=*/false);
    return data_[i].load(std::memory_order_relaxed);
  }

  void store(std::size_t i, T v) {
    access(i, /*is_write=*/true);
    data_[i].store(v, std::memory_order_relaxed);
  }

  T raw(std::size_t i) const { return data_[i].load(std::memory_order_relaxed); }

  /// Number of granules that have split to per-element shadows (tests).
  std::size_t split_count() const {
    std::size_t k = 0;
    for (std::size_t g = 0; g < num_granules(); ++g) {
      if (granules_[g].elements.load(std::memory_order_acquire) != nullptr) {
        ++k;
      }
    }
    return k;
  }

 private:
  struct Granule {
    typename D::VarState coarse;
    PackedCell cell;  // fronts `coarse` in packed mode
    std::atomic<Tid> owner{kUnowned};
    std::atomic<typename D::VarState*> elements{nullptr};
    std::mutex split_mu;
    std::unique_ptr<typename D::VarState[]> storage;  // owns `elements`
  };

  static constexpr Tid kUnowned = ~Tid{0};

  std::size_t num_granules() const { return (n_ + granule_ - 1) / granule_; }

  void access(std::size_t i, bool is_write) {
    Granule& g = granules_[i / granule_];
    typename D::VarState* fine = g.elements.load(std::memory_order_acquire);
    if (fine == nullptr && packed_ && owner_is_self(g)) {
      // Owner-only coarse path through the cell. The owner's accesses are
      // ordered after its own recorded epochs by program order, so in
      // practice this never escalates before the split; the spill target
      // is the eager coarse VarState either way.
      auto target = [&g]() -> typename D::VarState& { return g.coarse; };
      if (is_write) {
        packed_access<true>(rt_->tool(), rt_->self(), g.cell, target,
                            target);
      } else {
        packed_access<false>(rt_->tool(), rt_->self(), g.cell, target,
                             target);
      }
      return;
    }
    typename D::VarState& vs =
        fine != nullptr ? fine[i % granule_] : shadow_for(g, i);
    if (is_write) {
      rt_->tool().write(rt_->self(), vs);
    } else {
      rt_->tool().read(rt_->self(), vs);
    }
  }

  /// Resolve the granule's owner, claiming it on first touch.
  bool owner_is_self(Granule& g) {
    const Tid self = rt_->self().t;
    Tid owner = g.owner.load(std::memory_order_acquire);
    if (owner == kUnowned &&
        g.owner.compare_exchange_strong(owner, self,
                                        std::memory_order_acq_rel)) {
      return true;  // first touch: claimed the granule
    }
    return owner == self ||
           g.owner.load(std::memory_order_acquire) == self;
  }

  typename D::VarState& shadow_for(Granule& g, std::size_t i) {
    typename D::VarState* fine = g.elements.load(std::memory_order_acquire);
    if (fine != nullptr) return fine[i % granule_];
    if (owner_is_self(g)) return g.coarse;  // exclusive owner, coarse path
    return split(g, i);  // second thread: refine to per-element shadows
  }

  typename D::VarState& split(Granule& g, std::size_t i) {
    std::scoped_lock lk(g.split_mu);
    typename D::VarState* fine = g.elements.load(std::memory_order_acquire);
    if (fine == nullptr) {
      const std::size_t lo = (&g - granules_.get()) * granule_;
      const std::size_t len = std::min(granule_, n_ - lo);
      auto storage = std::make_unique<typename D::VarState[]>(len);
      // Epoch-mode snapshot of the granule's history: from the cell when
      // it fronts the coarse path, from the coarse VarState otherwise (or
      // when the cell was force-escalated into it).
      Epoch r, w;
      const std::uint64_t bits = g.cell.bits();
      if (packed_ && !PackedCell::is_sentinel(bits)) {
        r = PackedCell::unpack_r(bits);
        w = PackedCell::unpack_w(bits);
      } else {
        r = probe_r(g.coarse);
        w = probe_w(g.coarse);
      }
      for (std::size_t k = 0; k < len; ++k) {
        storage[k].id = reinterpret_cast<std::uint64_t>(&storage[k]);
        inject(storage[k], r, w);
      }
      fine = storage.get();
      g.storage = std::move(storage);
      g.elements.store(fine, std::memory_order_release);
    }
    return fine[i % granule_];
  }

  Runtime<D>* rt_;
  const bool packed_;
  std::size_t n_;
  std::size_t granule_;
  std::unique_ptr<std::atomic<T>[]> data_;
  std::unique_ptr<Granule[]> granules_;
};

}  // namespace vft::rt
