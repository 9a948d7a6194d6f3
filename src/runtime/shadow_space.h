// Two-level shadow memory: the production-shaped mapping from target
// addresses to analysis state, the one raw-pointer backend.
//
// Layout (the Valgrind-DRD primary/secondary map, adapted to 64-bit
// address spaces the way ThreadSanitizer-style tools do):
//
//   address ──┬─ bits [kPageSpanLog2, 64)  ──> bucket in a fixed top-level
//             │                                array of atomic page
//             │                                pointers (hash-mixed so the
//             │                                sparse 48-bit user space
//             │                                spreads evenly)
//             └─ bits [kGranularityLog2,
//                      kPageSpanLog2)      ──> slot inside the page
//
// Each page (PackedShadowSpace below, over the PageDirectory machinery)
// holds one 64-bit packed {R, W} cell per word plus a lazy spill slot: the
// same-epoch/exclusive fast path of vft/packed_cell.h runs inline against
// the cell, and only escalated words ever materialize a VarState. Every
// access enters through one of two members: access<IsWrite>(addr, size)
// for raw addresses (the scalar cell path for one word, the SIMD range
// scan for anything wider) and access_slot<IsWrite> for rt::Array's
// pre-resolved slots.
//
// A page also holds the lock and atomic states of the sync objects in its
// memory (lock_of / atomic_of: a lazily allocated side table keyed by exact
// address), so one directory maps every target address to its state and
// one reset_range clears all of it.
//
// Pages are allocated on first touch and published with a CAS into the
// bucket's chain - no lock anywhere on the lookup path. Distinct page
// bases that land in the same bucket chain off each other (the chain is
// almost always length 1).
//
// Two properties the Section 4 runtime assumptions need:
//
//   Stability  pages are never freed or moved during a session, so a cell
//              (and a spilled VarState) stays valid forever (the
//              one-to-one persistent variable->VarState mapping). The flip
//              side: if the target frees memory and the allocator reuses
//              the address, the new object inherits the old shadow word
//              (real tools hook free() to clear shadow; see
//              docs/ALGORITHM.md §8).
//   Agreement  every alias of an address maps to the same cell, so
//              wrapper-based (rt::Array carving) and raw-pointer
//              instrumentation of the same memory see the same history.
//
// Granularity: accesses within the same 8-byte word share a cell
// (word-granular shadow, as in TSan's default).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "sched/sched_point.h"
#include "vft/atomics.h"
#include "vft/detector.h"
#include "vft/packed_cell.h"
#include "vft/packed_cell_bits.h"
#include "vft/shadow_state.h"
#include "vft/stats.h"
#include "vft/vc_simd.h"

namespace vft::rt {

/// Geometry shared by every PackedShadowSpace instantiation (non-template
/// so the formatting helpers can live in shadow_space.cpp). The cell
/// geometry is the cell contract's (vft/packed_cell_bits.h), which the
/// header-inlined ABI path computes its cell pointers with too.
struct ShadowGeometry {
  /// log2 bytes per shadow slot: 8-byte words, one cell each.
  static constexpr std::size_t kGranularityLog2 = VFT_CELL_GRANULARITY_LOG2;
  static constexpr std::size_t kGranularity = 1u << kGranularityLog2;
  /// log2 slots per page: 512 slots -> a page spans 4 KiB of target memory.
  static constexpr std::size_t kSlotsPerPageLog2 = VFT_CELL_SLOTS_PER_PAGE_LOG2;
  static constexpr std::size_t kSlotsPerPage = 1u << kSlotsPerPageLog2;
  static constexpr std::size_t kPageSpanLog2 = kGranularityLog2 + kSlotsPerPageLog2;
  static constexpr std::size_t kPageSpan = 1u << kPageSpanLog2;
  /// log2 top-level buckets: 64K atomic pointers = 512 KiB per space.
  static constexpr std::size_t kTopBitsLog2 = 16;
  static constexpr std::size_t kBuckets = 1u << kTopBitsLog2;

  /// The page base covering `a`.
  static std::uintptr_t base_of(std::uintptr_t a) {
    return vft_cell_page_base(a);
  }

  /// Slot index of `a` within its page.
  static std::size_t slot_index(std::uintptr_t a) { return vft_cell_slot(a); }

  /// Top-level index for a page base: multiply-shift mix of the page
  /// number, so the handful of live 48-bit address-space regions (stack,
  /// heap, globals) spread over the buckets instead of clustering.
  static std::size_t bucket_of(std::uintptr_t page_base) {
    std::uintptr_t x = page_base >> kPageSpanLog2;
    x ^= x >> 29;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 32;
    return static_cast<std::size_t>(x) & (kBuckets - 1);
  }

  /// One-line description of the layout constants (for docs/tools).
  static std::string describe();

  /// Monotonically increasing id handed to each directory instance.
  /// The thread-local lookup cache tags entries with it, so a cache entry
  /// can never resurrect a page of a destroyed (or different) space even
  /// if a later space reuses the same object address.
  static std::uint64_t next_space_id();
};

/// Allocation counters of one shadow space (snapshot; relaxed reads).
struct ShadowSpaceStats {
  std::size_t pages = 0;       ///< shadow pages allocated
  std::size_t slots = 0;       ///< shadow slots those pages hold
  std::size_t bytes = 0;       ///< footprint: directory, pages, spills, sync
  std::size_t collisions = 0;  ///< bucket chains longer than one + CAS races
  std::size_t cache_misses = 0;  ///< lookups that fell past the TL cache
  std::size_t spilled = 0;  ///< packed cells escalated to full VarStates
  std::size_t words_reset = 0;  ///< shadow words cleared by reset_range
};

/// "pages=N slots=N mem=N.NMiB collisions=N ..." (shadow_space.cpp).
std::string str(const ShadowSpaceStats& s);

/// The lock-free two-level page table behind the shadow space. PageT
/// must expose `const std::uintptr_t base`, `std::atomic<PageT*> next`,
/// and a PageT(std::uintptr_t base) constructor.
///
/// Lookup fast path: a TSan-style thread-local last-page cache.
/// Consecutive accesses to the same 4 KiB shadow page (the overwhelmingly
/// common case for sweeps and per-thread working sets) skip the bucket
/// hash, the atomic chain walk, and their acquire fences: two compares and
/// a shift. Entries are tagged with the directory's unique id, so a cache
/// line can never outlive its space or leak across spaces (ids are never
/// reused); the cached PageT* was acquire-loaded by this same thread when
/// it was inserted, so its contents are already visible.
template <typename PageT>
class PageDirectory {
 public:
  using Geometry = ShadowGeometry;

  PageDirectory()
      : buckets_(std::make_unique<std::atomic<PageT*>[]>(Geometry::kBuckets)) {}

  ~PageDirectory() {
    for (std::size_t b = 0; b < Geometry::kBuckets; ++b) {
      PageT* p = buckets_[b].load(std::memory_order_relaxed);
      while (p != nullptr) {
        PageT* next = p->next.load(std::memory_order_relaxed);
        delete p;
        p = next;
      }
    }
  }

  PageDirectory(const PageDirectory&) = delete;
  PageDirectory& operator=(const PageDirectory&) = delete;

  /// The page for `base` (allocated on first touch), through the
  /// thread-local cache. Single fused tag check: both the space id and the
  /// page base must match; OR-ing the XORs turns that into one
  /// compare-and-branch.
  PageT& page(std::uintptr_t base) {
    const Cache& c = tl_cache_;
    if (((c.space ^ id_) | (c.base ^ base)) == 0) {
      return *c.page;
    }
    return page_miss(base);
  }

  /// The page for `base` if it was ever touched, else nullptr - a lookup
  /// that never allocates. reset_range walks existing pages with this so
  /// clearing the shadow of freed memory cannot materialize new pages.
  PageT* find_page(std::uintptr_t base) {
    std::atomic<PageT*>& head = buckets_[Geometry::bucket_of(base)];
    for (PageT* p = head.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      if (p->base == base) return p;
    }
    return nullptr;
  }

  /// The pre-cache lookup path (hash + chain walk), kept callable so
  /// bench_hotpath can measure exactly what the cache buys.
  PageT& page_uncached(std::uintptr_t base) {
    std::atomic<PageT*>& head = buckets_[Geometry::bucket_of(base)];
    for (PageT* p = head.load(std::memory_order_acquire); p != nullptr;
         p = p->next.load(std::memory_order_acquire)) {
      if (p->base == base) return *p;
    }
    return publish_page(head, base);
  }

  std::size_t pages() const { return pages_.load(std::memory_order_relaxed); }
  std::size_t collisions() const {
    return collisions_.load(std::memory_order_relaxed);
  }
  std::size_t cache_misses() const { return cache_misses_.sum(0); }

 private:
  /// One-entry per-thread lookup cache (per PageT instantiation).
  struct Cache {
    std::uint64_t space = 0;  ///< owning directory's id_; 0 never matches
    std::uintptr_t base = 0;
    PageT* page = nullptr;
  };
  /// constinit: guarantees constant initialization, so every TU accesses
  /// the TLS slot directly instead of through the dynamic-init wrapper
  /// function the ABI otherwise requires for inline thread_locals. The
  /// wrapper call was the whole cost of the cache on single-page hammer
  /// workloads (BENCH_hotpath shadow_cache hammer_* rows).
  inline static constinit thread_local Cache tl_cache_{};

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline, cold))
#endif
  PageT& page_miss(std::uintptr_t base) {
    cache_misses_.add(0);
    std::atomic<PageT*>& head = buckets_[Geometry::bucket_of(base)];
    PageT* p = head.load(std::memory_order_acquire);
    while (p != nullptr && p->base != base) {
      p = p->next.load(std::memory_order_acquire);
    }
    if (p == nullptr) p = &publish_page(head, base);
    tl_cache_ = Cache{id_, base, p};
    return *p;
  }

  /// Miss path: allocate the page for `base` and CAS it onto the bucket
  /// chain; on a lost race the winner's page is used and ours is dropped.
  PageT& publish_page(std::atomic<PageT*>& head, std::uintptr_t base) {
    auto fresh = std::make_unique<PageT>(base);
    PageT* expected = head.load(std::memory_order_acquire);
    for (;;) {
      // Re-scan: a concurrent publisher may have added `base` meanwhile.
      for (PageT* p = expected; p != nullptr;
           p = p->next.load(std::memory_order_acquire)) {
        if (p->base == base) {
          collisions_.fetch_add(1, std::memory_order_relaxed);
          return *p;
        }
      }
      fresh->next.store(expected, std::memory_order_relaxed);
      VFT_SCHED_POINT(kCas, &head);
      if (head.compare_exchange_weak(expected, fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        if (expected != nullptr) {
          collisions_.fetch_add(1, std::memory_order_relaxed);
        }
        pages_.fetch_add(1, std::memory_order_relaxed);
        return *fresh.release();
      }
    }
  }

  const std::uint64_t id_ = Geometry::next_space_id();
  std::unique_ptr<std::atomic<PageT*>[]> buckets_;
  std::atomic<std::size_t> pages_{0};
  std::atomic<std::size_t> collisions_{0};
  /// Bumped on every cache miss, by every thread, so each thread bumps its
  /// own shard: a sweep that alternates between pages misses on each
  /// switch.
  ShardedCounters<1> cache_misses_;
};

/// Packed-cell shadow space: 16 bytes of page payload per target word (an
/// 8-byte {R, W} cell plus an 8-byte lazy spill pointer) instead of a full
/// VarState. Accesses run the vft/packed_cell.h fast path inline; only
/// escalated words allocate a VarState, published through the cell's
/// ESCALATING->ESCALATED protocol (the spill directory of the packed
/// design). The spilled VarState's id is the word's base address, so race
/// reports name a word the same way whichever path touched it.
template <Detector D>
class PackedShadowSpace {
 public:
  using Geometry = ShadowGeometry;
  using VarState = typename D::VarState;

  PackedShadowSpace() = default;
  PackedShadowSpace(const PackedShadowSpace&) = delete;
  PackedShadowSpace& operator=(const PackedShadowSpace&) = delete;

  /// A resolved word: its cell, its spill slot, and the report id. Stable
  /// forever; wrappers pre-resolve one per element.
  struct Slot {
    PackedCell* cell = nullptr;
    std::atomic<VarState*>* spill = nullptr;
    std::uint64_t id = 0;
  };

  Slot slot_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Page& p = dir_.page(Geometry::base_of(a));
    const std::size_t i = Geometry::slot_index(a);
    return Slot{&p.cells[i], &p.spills[i],
                p.base + (i << Geometry::kGranularityLog2)};
  }

  /// The packed cell shadowing the word containing `addr`.
  PackedCell& cell_of(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return dir_.page(Geometry::base_of(a)).cells[Geometry::slot_index(a)];
  }

  /// The pre-cache lookup path, for bench_hotpath's cache A/B.
  PackedCell& cell_of_uncached(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    return dir_.page_uncached(Geometry::base_of(a))
        .cells[Geometry::slot_index(a)];
  }

  /// Force-escalated VarState access, so external probes stay coherent
  /// with the cell protocol. Prefer access(): this defeats the fast path
  /// for the word it touches.
  VarState& of(const void* addr) { return escalated(slot_of(addr)); }

  /// One instrumented access of `size` bytes at `addr`, the one raw-address
  /// entry. An access inside one shadow word takes the scalar cell path: the
  /// packed fast path inline against the cell, the detector on the
  /// (spilled-on-demand) VarState otherwise. Anything wider (a straddle, a
  /// memcpy-style range) takes the SIMD range scan, which resolves whole
  /// runs of same-epoch cells per iteration instead of one fast path per
  /// word: the vc_simd prefix kernel counts leading cells this thread's
  /// epoch already covers, those bump their rule counters in bulk and are
  /// done (a same-epoch hit mutates nothing), and the first non-matching
  /// word takes the scalar path - advance/spill/detector exactly as a
  /// single access would - before the scan resumes after it. Counter
  /// totals are bit-identical to a per-word loop.
  ///
  /// `sampled` is the sampling gate's verdict (vft/sampling.h): with
  /// sampled=false only the cell fast path runs - no spill, no detector, no
  /// VarState. Returns false iff any word reported a race.
  template <bool IsWrite, typename Tool>
  bool access(Tool& tool, ThreadState& st, const void* addr, std::size_t size,
              bool sampled = true) {
    if (vft_cell_one_word(reinterpret_cast<std::uintptr_t>(addr), size)) {
      return access_slot<IsWrite>(tool, st, slot_of(addr), sampled);
    }
    return range_access<IsWrite>(tool, st, addr, size, sampled);
  }

  /// The scalar path on a pre-resolved word (rt::Array caches one Slot per
  /// element).
  template <bool IsWrite, typename Tool>
  bool access_slot(Tool& tool, ThreadState& st, const Slot& s,
                   bool sampled = true) {
    return packed_access<IsWrite>(tool, st, *s.cell, spill_make(s),
                                  spill_get(s), sampled, /*var=*/s.id);
  }

  /// The spilled VarState of `s`, escalating the cell first if needed.
  VarState& escalated(const Slot& s) {
    return escalate_cell(*s.cell, spill_make(s), spill_get(s));
  }

  /// The raw cell words of the page covering `base` (allocated on first
  /// touch). The header-inlined ABI fast path (src/abi/vft_abi_inline.h)
  /// caches this pointer in its per-thread descriptor and the SIMD range
  /// kernels scan it directly; page stability makes the pointer valid for
  /// the life of the space. The fast path only *reads* cells (a same-epoch
  /// hit mutates nothing), hence const.
  const std::uint64_t* page_cells(std::uintptr_t base) {
    static_assert(sizeof(PackedCell) == sizeof(std::uint64_t));
    static_assert(alignof(PackedCell) == alignof(std::uint64_t));
    return reinterpret_cast<const std::uint64_t*>(dir_.page(base).cells);
  }

  /// The lock state of the sync object at exactly `addr`, created bottom
  /// on first use and stable until a reset_range covers it. Handlers use it
  /// under the target lock (§4); the lookup itself takes no lock.
  LockState& lock_of(const void* addr) {
    SyncObject& o = sync_object(addr);
    if (!o.lock_live.load(std::memory_order_relaxed) &&
        !o.lock_live.exchange(true, std::memory_order_relaxed)) {
      live_locks_.fetch_add(1, std::memory_order_relaxed);
    }
    return o.lock;
  }

  /// The atomic location at exactly `addr` (vft/atomics.h), as lock_of.
  atomics::AtomicState& atomic_of(const void* addr) {
    return sync_object(addr).atomic;
  }

  /// Reset every shadow word overlapping [addr, addr+size) to bottom
  /// state, and every sync object whose address lies in the range. This is
  /// the shadow half of free()/munmap() interposition: without it, memory
  /// the allocator recycles would inherit the dead object's access history
  /// and report false races against its previous life, and a recycled lock
  /// or atomic the dead one's release clock (docs/ALGORITHM.md s8). An
  /// epoch-mode cell goes back to {bottom, bottom}; an escalated word stays
  /// escalated and its spilled VarState is re-bottomed in place, keeping
  /// the report id - re-entering epoch mode would need to un-publish the
  /// VarState other threads may have cached. Sync objects are re-bottomed
  /// in place too (a lookup of a live neighbour may be walking past them),
  /// and a reset lock leaves locks() until it is used again.
  ///
  /// Only pages that already exist are touched - clearing never allocates.
  /// The caller must guarantee no thread concurrently accesses the range
  /// being cleared; for the free() path that is the target's own
  /// correctness obligation (freeing memory another thread still uses is a
  /// bug this very tool exists to find).
  void reset_range(const void* addr, std::size_t size) {
    if (size == 0) return;
    const auto lo = reinterpret_cast<std::uintptr_t>(addr);
    const std::uintptr_t hi = lo + size;
    for (std::uintptr_t base = Geometry::base_of(lo); base < hi;
         base += Geometry::kPageSpan) {
      Page* p = dir_.find_page(base);
      if (p == nullptr) continue;
      const std::uintptr_t first = base < lo ? lo : base;
      const std::uintptr_t last =
          base + Geometry::kPageSpan < hi ? base + Geometry::kPageSpan : hi;
      std::size_t i = Geometry::slot_index(first);
      const std::size_t end =
          ((last - 1 - base) >> Geometry::kGranularityLog2) + 1;
      SyncTable* sync = p->sync.load(std::memory_order_acquire);
      for (; i < end; ++i) {
        if (sync != nullptr) reset_sync(sync->heads[i], lo, hi);
        if (VarState* vs = p->spills[i].load(std::memory_order_relaxed)) {
          const std::uint64_t id = vs->id;
          std::destroy_at(vs);
          std::construct_at(vs);
          vs->id = id;
        } else {
          // Racing an in-flight escalation loses benignly: the loser's
          // snapshot was the pre-free history the caller promised is quiet.
          std::uint64_t cur = p->cells[i].bits();
          while (!PackedCell::is_sentinel(cur) &&
                 !p->cells[i].cas_bits(cur, 0)) {
          }
        }
      }
      words_reset_.fetch_add(end - Geometry::slot_index(first),
                             std::memory_order_relaxed);
    }
  }

  std::size_t pages() const { return dir_.pages(); }
  std::size_t size() const { return pages() * Geometry::kSlotsPerPage; }
  std::size_t spilled() const {
    return spilled_.load(std::memory_order_relaxed);
  }
  std::size_t words_reset() const {
    return words_reset_.load(std::memory_order_relaxed);
  }
  /// Lock states used since their creation or last reset.
  std::size_t locks() const {
    return live_locks_.load(std::memory_order_relaxed);
  }
  /// Sync objects allocated, reset ones included.
  std::size_t sync_objects() const {
    return sync_objects_.load(std::memory_order_relaxed);
  }

  ShadowSpaceStats stats() const {
    ShadowSpaceStats s;
    s.pages = pages();
    s.slots = s.pages * Geometry::kSlotsPerPage;
    s.bytes = Geometry::kBuckets * sizeof(std::atomic<Page*>) +
              s.pages * sizeof(Page) + spilled() * sizeof(VarState) +
              sync_tables_.load(std::memory_order_relaxed) *
                  sizeof(SyncTable) +
              sync_objects() * sizeof(SyncObject);
    s.collisions = dir_.collisions();
    s.cache_misses = dir_.cache_misses();
    s.spilled = spilled();
    s.words_reset = words_reset();
    return s;
  }

 private:
  /// One target sync object, keyed by its exact address (two atomics in
  /// one word are two objects). A spinlock flag used both as a lock and as
  /// an atomic keeps the two states apart.
  struct SyncObject {
    explicit SyncObject(std::uintptr_t a) : addr(a) {}

    const std::uintptr_t addr;
    SyncObject* next = nullptr;  ///< set before publication, never after
    LockState lock;
    atomics::AtomicState atomic;
    std::atomic<bool> lock_live{false};  ///< a lock since creation/reset
  };

  /// A page's sync side table, allocated on its first lock_of/atomic_of:
  /// heads[i] chains the objects whose address lies in word i. Objects are
  /// CAS-pushed and never unlinked before the page dies, so walks take no
  /// lock (the spills[] discipline).
  struct SyncTable {
    ~SyncTable() {
      for (std::atomic<SyncObject*>& h : heads) {
        SyncObject* o = h.load(std::memory_order_relaxed);
        while (o != nullptr) delete std::exchange(o, o->next);
      }
    }

    std::atomic<SyncObject*> heads[Geometry::kSlotsPerPage]{};
  };

  struct Page {
    explicit Page(std::uintptr_t b) : base(b) {}

    ~Page() {
      for (std::size_t i = 0; i < Geometry::kSlotsPerPage; ++i) {
        delete spills[i].load(std::memory_order_relaxed);
      }
      delete sync.load(std::memory_order_relaxed);
    }

    const std::uintptr_t base;
    std::atomic<Page*> next{nullptr};
    /// The page covering base + kPageSpan, filled in by the first range
    /// access that walks past this page. Pages live until the space dies,
    /// so the pointer never dangles; it turns the per-page directory
    /// lookup of a multi-page range into a single pointer chase.
    std::atomic<Page*> adjacent{nullptr};
    PackedCell cells[Geometry::kSlotsPerPage];
    std::atomic<VarState*> spills[Geometry::kSlotsPerPage]{};
    /// Locks and atomics in this page's memory; nullptr until the first.
    std::atomic<SyncTable*> sync{nullptr};
  };

  /// The sync object at exactly `addr`, created on first use: the page
  /// lookup, then one chain walk. Table and object are published by CAS,
  /// and a lost CAS re-scans what the winner added, so concurrent creators
  /// of one address agree on one object (as PageDirectory::publish_page).
  SyncObject& sync_object(const void* addr) {
    const auto a = reinterpret_cast<std::uintptr_t>(addr);
    Page& p = dir_.page(Geometry::base_of(a));
    SyncTable* t = p.sync.load(std::memory_order_acquire);
    if (t == nullptr) {
      auto table = std::make_unique<SyncTable>();
      VFT_SCHED_POINT(kCas, &p.sync);
      if (p.sync.compare_exchange_strong(t, table.get(),
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
        t = table.release();
        sync_tables_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::atomic<SyncObject*>& head = t->heads[Geometry::slot_index(a)];
    SyncObject* expected = head.load(std::memory_order_acquire);
    std::unique_ptr<SyncObject> fresh;
    for (;;) {
      for (SyncObject* o = expected; o != nullptr; o = o->next) {
        if (o->addr == a) return *o;
      }
      if (fresh == nullptr) fresh = std::make_unique<SyncObject>(a);
      fresh->next = expected;
      VFT_SCHED_POINT(kCas, &head);
      if (head.compare_exchange_weak(expected, fresh.get(),
                                     std::memory_order_release,
                                     std::memory_order_acquire)) {
        sync_objects_.fetch_add(1, std::memory_order_relaxed);
        return *fresh.release();
      }
    }
  }

  /// reset_range's sync half for word chain `head`: re-bottom in place
  /// every object whose exact address lies in [lo, hi).
  void reset_sync(std::atomic<SyncObject*>& head, std::uintptr_t lo,
                  std::uintptr_t hi) {
    for (SyncObject* o = head.load(std::memory_order_acquire); o != nullptr;
         o = o->next) {
      if (o->addr < lo || o->addr >= hi) continue;
      if (o->lock_live.exchange(false, std::memory_order_relaxed)) {
        live_locks_.fetch_sub(1, std::memory_order_relaxed);
      }
      std::destroy_at(&o->lock);
      std::construct_at(&o->lock);
      std::destroy_at(&o->atomic);
      std::construct_at(&o->atomic);
    }
  }

  /// access()'s range scan, for accesses wider than one shadow word.
  template <bool IsWrite, typename Tool>
  bool range_access(Tool& tool, ThreadState& st, const void* addr,
                    std::size_t size, bool sampled) {
    [[maybe_unused]] const std::uint32_t e = st.epoch().bits();
    const std::uintptr_t lo =
        reinterpret_cast<std::uintptr_t>(addr) &
        ~static_cast<std::uintptr_t>(Geometry::kGranularity - 1);
    const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(addr) + size;
    bool ok = true;
    Page* prev = nullptr;
    // SIMD-resolved cells accumulate locally and credit their rule
    // counters once per call - totals are identical to per-page bumps,
    // without an atomic RMW pair on every page segment.
    [[maybe_unused]] std::uint64_t hit_cells = 0;
    [[maybe_unused]] std::uint64_t sampled_out_cells = 0;
    for (std::uintptr_t base = Geometry::base_of(lo); base < hi;
         base += Geometry::kPageSpan) {
      // Consecutive pages ride the adjacency link instead of re-walking
      // the directory: one acquire load per page after the first.
      Page* pp = prev != nullptr
                     ? prev->adjacent.load(std::memory_order_acquire)
                     : nullptr;
      if (pp == nullptr || pp->base != base) {
        pp = &dir_.page(base);
        if (prev != nullptr) {
          prev->adjacent.store(pp, std::memory_order_release);
        }
      }
      prev = pp;
      Page& p = *pp;
      const std::uintptr_t first = base < lo ? lo : base;
      const std::uintptr_t last =
          base + Geometry::kPageSpan < hi ? base + Geometry::kPageSpan : hi;
      std::size_t i = Geometry::slot_index(first);
      const std::size_t end =
          ((last - 1 - base) >> Geometry::kGranularityLog2) + 1;
      [[maybe_unused]] const auto* bits =
          reinterpret_cast<const std::uint64_t*>(p.cells);
      while (i < end) {
#ifndef VFT_SCHED
        // Sched builds skip the prefix: the per-word loop below funnels
        // through load_bits()/cas_bits(), which carry the sched points.
        const std::size_t m =
            IsWrite ? simd::cells_match_write_prefix(bits + i, end - i, e)
                    : simd::cells_match_read_prefix(bits + i, end - i, e);
        if (m > 0) {
          if (sampled) {
            hit_cells += m;
          } else {
            // Sampled-out same-epoch hits: the scalar gated path would
            // leave the cell untouched and bump only kSampledOut too.
            sampled_out_cells += m;
          }
          i += m;
          if (i == end) break;
        }
#endif
        const void* wa = reinterpret_cast<const void*>(
            base + (i << Geometry::kGranularityLog2));
        ok &= access_slot<IsWrite>(tool, st, slot_of(wa), sampled);
        ++i;
      }
    }
#ifndef VFT_SCHED
    if (hit_cells > 0) {
      bump_rule(tool, IsWrite ? Rule::kWriteSameEpoch : Rule::kReadSameEpoch,
                hit_cells);
      bump_rule(tool, IsWrite ? Rule::kFastWriteHit : Rule::kFastReadHit,
                hit_cells);
    }
    if (sampled_out_cells > 0) {
      bump_rule(tool, Rule::kSampledOut, sampled_out_cells);
    }
#endif
    return ok;
  }

  /// make/get closures for escalate_cell: publication order is carried by
  /// the cell's release-store of ESCALATED, so the spill pointer itself
  /// needs only relaxed ordering.
  auto spill_make(const Slot& s) {
    return [this, &s]() -> VarState& {
      auto* vs = new VarState();
      vs->id = s.id;
      s.spill->store(vs, std::memory_order_relaxed);
      spilled_.fetch_add(1, std::memory_order_relaxed);
      return *vs;
    };
  }
  auto spill_get(const Slot& s) {
    return [&s]() -> VarState& { return *s.spill->load(std::memory_order_relaxed); };
  }

  PageDirectory<Page> dir_;
  std::atomic<std::size_t> spilled_{0};
  std::atomic<std::size_t> words_reset_{0};
  std::atomic<std::size_t> sync_tables_{0};
  std::atomic<std::size_t> sync_objects_{0};
  std::atomic<std::size_t> live_locks_{0};
};

}  // namespace vft::rt
