// Coarse-granularity array shadow: the "single shadow location for whole
// arrays/objects" overhead reduction surveyed in Section 9 (and refined by
// the array-shadow-compression line of work the paper cites as
// complementary). One VarState covers G consecutive elements, dividing
// shadow memory and check count by up to G.
//
// Precision tradeoff, stated upfront (Section 9: "although this may
// generate false alarms"): two threads touching *different* elements of
// the same granule without synchronization are reported as racing, because
// the analysis cannot tell the elements apart. Race-free use therefore
// requires thread partitions aligned to granule boundaries (or
// synchronization across granule boundaries). tests/coarse_array_test.cpp
// demonstrates both the speedup pattern and the false-alarm mode;
// bench_compression measures the overhead curve across granularities.
#pragma once

#include "runtime/tool.h"

#include <atomic>
#include <memory>

namespace vft::rt {

template <typename T, Detector D>
class CoarseArray {
 public:
  /// n elements shadowed at granularity `granule` (elements per VarState).
  /// With `packed = true` (spill-capable detectors only), each granule's
  /// VarState is fronted by a packed cell: granule-exclusive phases run
  /// the same-epoch fast path inline and the eager VarState becomes the
  /// spill target on escalation. Opt-in, so the E11 granularity curves
  /// keep measuring the detectors themselves by default.
  CoarseArray(Runtime<D>& rt, std::size_t n, std::size_t granule,
              T initial = T{}, bool packed = false)
      : rt_(&rt),
        n_(n),
        granule_(granule == 0 ? 1 : granule),
        data_(std::make_unique<std::atomic<T>[]>(n)),
        shadow_(std::make_unique<typename D::VarState[]>(
            (n + granule_ - 1) / granule_)) {
    for (std::size_t i = 0; i < n; ++i) {
      data_[i].store(initial, std::memory_order_relaxed);
    }
    for (std::size_t g = 0; g < (n + granule_ - 1) / granule_; ++g) {
      shadow_[g].id = reinterpret_cast<std::uint64_t>(&shadow_[g]);
    }
    if constexpr (SpillableVarState<typename D::VarState>) {
      if (packed) {
        cells_ = std::make_unique<PackedCell[]>((n + granule_ - 1) / granule_);
      }
    }
  }

  std::size_t size() const { return n_; }
  std::size_t granule() const { return granule_; }

  T load(std::size_t i) {
    VFT_ASSERT(i < n_);
    check_granule(i / granule_, /*is_write=*/false);
    return data_[i].load(std::memory_order_relaxed);
  }

  void store(std::size_t i, T v) {
    VFT_ASSERT(i < n_);
    check_granule(i / granule_, /*is_write=*/true);
    data_[i].store(v, std::memory_order_relaxed);
  }

  /// Range operations: one check per *granule touched*, not per element -
  /// the dynamic analogue of BigFoot-style check coalescing (one displaced
  /// check proven to cover a whole region). The caller asserts that the
  /// range is accessed as a unit between synchronization operations.
  template <typename Fn>
  void read_range(std::size_t lo, std::size_t hi, Fn&& consume) {
    VFT_ASSERT(lo <= hi && hi <= n_);
    check_range(lo, hi, /*is_write=*/false);
    for (std::size_t i = lo; i < hi; ++i) {
      consume(i, data_[i].load(std::memory_order_relaxed));
    }
  }

  template <typename Fn>
  void write_range(std::size_t lo, std::size_t hi, Fn&& produce) {
    VFT_ASSERT(lo <= hi && hi <= n_);
    check_range(lo, hi, /*is_write=*/true);
    for (std::size_t i = lo; i < hi; ++i) {
      data_[i].store(produce(i), std::memory_order_relaxed);
    }
  }

  T raw(std::size_t i) const { return data_[i].load(std::memory_order_relaxed); }

 private:
  void check_granule(std::size_t g, bool is_write) {
    if constexpr (SpillableVarState<typename D::VarState>) {
      if (cells_ != nullptr) {
        auto target = [this, g]() -> typename D::VarState& {
          return shadow_[g];
        };
        if (is_write) {
          packed_access<true>(rt_->tool(), rt_->self(), cells_[g], target,
                              target);
        } else {
          packed_access<false>(rt_->tool(), rt_->self(), cells_[g], target,
                               target);
        }
        return;
      }
    }
    if (is_write) {
      rt_->tool().write(rt_->self(), shadow_[g]);
    } else {
      rt_->tool().read(rt_->self(), shadow_[g]);
    }
  }

  void check_range(std::size_t lo, std::size_t hi, bool is_write) {
    if (lo == hi) return;
    const std::size_t g_lo = lo / granule_;
    const std::size_t g_hi = (hi - 1) / granule_;
    for (std::size_t g = g_lo; g <= g_hi; ++g) {
      check_granule(g, is_write);
    }
  }

  Runtime<D>* rt_;
  std::size_t n_;
  std::size_t granule_;
  std::unique_ptr<std::atomic<T>[]> data_;
  std::unique_ptr<typename D::VarState[]> shadow_;
  std::unique_ptr<PackedCell[]> cells_;  // non-null iff packed mode
};

}  // namespace vft::rt
