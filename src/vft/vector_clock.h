// Plain (externally synchronized) vector clocks, transcribing the
// VectorClock class of Figure 3 (lines 17-59).
//
// A VectorClock stores one epoch per thread id, maintaining the
// well-formedness invariant tid(V[t]) == t for every t. Reads past the end
// of the allocated array return the bottom epoch t@0, and the array grows
// on demand when a larger index is written (ensureCapacity).
//
// Representation: the first kInline components live inline in the object
// (no heap allocation for the common case of a handful of threads); larger
// clocks spill to a heap array. This is the C++ rendition of the paper's
// Section 7 "Local Optimizations" on the vector-clock representation
// (unrolled, allocation-light clocks for small thread counts).
//
// This class performs no synchronization of its own. It backs:
//   - ThreadState.V  (thread-local per the Section 4 discipline),
//   - LockState.V    (protected by the target lock m itself),
//   - v1 VarState.V  (protected by the VarState mutex).
// The v2 discipline needs lock-free reads of single slots and uses
// SyncVectorClock instead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "vft/epoch.h"
#include "vft/vc_simd.h"

namespace vft {

// The SIMD kernels treat Epoch arrays as raw u32 arrays (see vc_simd.h for
// why well-formedness makes that correct). Pin the layout they rely on.
static_assert(sizeof(Epoch) == sizeof(std::uint32_t));
static_assert(alignof(Epoch) == alignof(std::uint32_t));

/// Reinterpret an Epoch array as its packed-bits carrier for the kernels.
inline const std::uint32_t* epoch_bits(const Epoch* e) {
  return reinterpret_cast<const std::uint32_t*>(e);
}
inline std::uint32_t* epoch_bits(Epoch* e) {
  return reinterpret_cast<std::uint32_t*>(e);
}

class VectorClock {
 public:
  /// Components stored inline before spilling to the heap.
  static constexpr std::uint32_t kInline = 8;

  VectorClock() = default;

  /// A clock with capacity for threads [0, n), all at bottom.
  explicit VectorClock(std::uint32_t n) { ensure_capacity(n); }

  VectorClock(const VectorClock& other) { copy_from(other); }

  VectorClock& operator=(const VectorClock& other) {
    if (this != &other) {
      size_ = 0;  // discard contents; capacity is reused
      copy_from(other);
    }
    return *this;
  }

  VectorClock(VectorClock&& other) noexcept { move_from(std::move(other)); }

  VectorClock& operator=(VectorClock&& other) noexcept {
    if (this != &other) move_from(std::move(other));
    return *this;
  }

  /// get(t): the epoch for thread t, or t@0 beyond the allocated array.
  Epoch get(Tid t) const {
    return t < size_ ? data()[t] : Epoch::bottom(t);
  }

  /// set(t, e): store e at index t, growing the array if needed.
  /// Checked: e must be a well-formed epoch for thread t.
  void set(Tid t, Epoch e) {
    VFT_ASSERT(!e.is_shared() && e.tid() == t);
    ensure_capacity(t + 1);
    if (heap_) {
      heap_[t] = e;
    } else {
      // Heapless clocks have cap_ == kInline, so t < kInline here; the
      // min() only makes that bound visible to the optimizer.
      inline_[std::min(t, kInline - 1)] = e;
    }
  }

  /// inc(t): advance thread t's component by one (inc_t in Section 3).
  void inc(Tid t) { set(t, get(t).inc()); }

  /// Number of allocated components; logically the clock extends with
  /// bottom epochs beyond this.
  std::uint32_t size() const { return size_; }

  /// this <= other, point-wise over all components of either clock.
  /// Per-slot compares run as raw u32 compares (SIMD above the inline
  /// size): well-formedness makes them equivalent to vft::leq slot-wise.
  bool leq(const VectorClock& other) const {
    const Epoch* mine = data();
    const std::uint32_t common = std::min(size_, other.size_);
    if (!simd::leq_all(epoch_bits(mine), epoch_bits(other.data()), common)) {
      return false;
    }
    // Components beyond other's length compare against bottom: their clock
    // bits must all be zero.
    constexpr std::uint32_t kClockMask =
        (std::uint32_t{1} << Epoch::kClockBits) - 1;
    return simd::all_masked_zero(epoch_bits(mine) + common, size_ - common,
                                 kClockMask);
  }

  /// this := this join other (point-wise max; unsigned u32 max per slot).
  void join(const VectorClock& other) {
    ensure_capacity(other.size_);
    simd::join_max(epoch_bits(data()), epoch_bits(other.data()), other.size_);
  }

  /// this := other (copying all components either clock covers).
  void copy(const VectorClock& other) {
    ensure_capacity(other.size_);
    Epoch* mine = data();
    simd::copy_words(epoch_bits(mine), epoch_bits(other.data()), other.size_);
    for (Tid i = other.size_; i < size_; ++i) mine[i] = Epoch::bottom(i);
  }

  bool operator==(const VectorClock& other) const {
    const std::uint32_t n = std::max(size_, other.size_);
    for (Tid i = 0; i < n; ++i) {
      if (get(i) != other.get(i)) return false;
    }
    return true;
  }

  /// Forget all components but keep the allocation (a fence state
  /// dropped by a session reset) without touching the heap.
  void reset() { size_ = 0; }

  /// Grow the backing array so that indices [0, n) are materialized.
  void ensure_capacity(std::uint32_t n) {
    if (n <= size_) return;
    if (n > cap_) {
      std::uint32_t new_cap = std::max(n, cap_ * 2);
      auto fresh = std::make_unique<Epoch[]>(new_cap);
      const Epoch* old = data();
      for (Tid i = 0; i < size_; ++i) fresh[i] = old[i];
      heap_ = std::move(fresh);
      cap_ = new_cap;
    }
    Epoch* d = data();
    for (Tid i = size_; i < n; ++i) d[i] = Epoch::bottom(i);
    size_ = n;
  }

  /// Contiguous component storage [0, size()). Exposed for the SIMD
  /// kernels of callers that fuse over this representation (e.g.
  /// SyncVectorClock::leq_locked) and for the hot-path microbench.
  const Epoch* raw_slots() const { return data(); }

  /// "<0@1, 1@0, ...>" for debugging and golden-state tests.
  std::string str() const;

 private:
  Epoch* data() { return heap_ ? heap_.get() : inline_; }
  const Epoch* data() const { return heap_ ? heap_.get() : inline_; }

  void copy_from(const VectorClock& other) {
    ensure_capacity(other.size_);
    simd::copy_words(epoch_bits(data()), epoch_bits(other.data()), other.size_);
    size_ = other.size_;
  }

  void move_from(VectorClock&& other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      cap_ = other.cap_;
      size_ = other.size_;
    } else {
      heap_.reset();
      cap_ = kInline;
      // min() is a no-op (heapless clocks have size_ <= kInline) but lets
      // the optimizer bound the copy inside the inline array.
      size_ = std::min(other.size_, kInline);
      simd::copy_words(epoch_bits(inline_), epoch_bits(other.inline_), size_);
    }
    other.size_ = 0;
    other.cap_ = kInline;
    other.heap_.reset();
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  Epoch inline_[kInline];
  std::unique_ptr<Epoch[]> heap_;
};

}  // namespace vft
