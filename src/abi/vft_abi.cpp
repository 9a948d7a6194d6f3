// C ABI implementation: a thin, reentrancy-guarded shim from the extern
// "C" surface onto the process-global ambient::Session backend. Every
// entry - accesses and atomics included - dispatches through one virtual
// call on SessionBackend; only the sized access entries try the
// header-inlined fast path (abi/vft_abi_inline.h) first.
//
// The guard matters because the analysis runs *inside* the target
// process: a free() performed by the runtime's own allocations while a
// free-hint is being processed, or a mutex the session takes while a
// lock event is in flight, would otherwise recurse through the interposer
// back into this layer. Nested events on the same thread are dropped -
// they describe the analysis, not the target.
#include "abi/vft_abi.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "abi/vft_abi_inline.h"
#include "runtime/session.h"
#include "runtime/shadow_space.h"
#include "vft/report.h"
#include "vft/report_io.h"
#include "vft/sampling.h"

// The inline header's pointer math must agree with the shadow geometry it
// caches pointers into.
static_assert(VFT_FASTPATH_GRANULARITY_LOG2 ==
              vft::rt::ShadowGeometry::kGranularityLog2);
static_assert(VFT_FASTPATH_PAGE_SPAN == vft::rt::ShadowGeometry::kPageSpan);
static_assert(VFT_FASTPATH_SLOT_MASK ==
              vft::rt::ShadowGeometry::kSlotsPerPage - 1);

namespace {

using vft::rt::ambient::Session;
using vft::rt::ambient::SessionBackend;

thread_local bool tl_in_abi = false;

/// RAII reentrancy guard; `entered()` is false for a nested call.
class AbiScope {
 public:
  AbiScope() : entered_(!tl_in_abi) { tl_in_abi = true; }
  ~AbiScope() {
    if (entered_) tl_in_abi = false;
  }
  AbiScope(const AbiScope&) = delete;
  AbiScope& operator=(const AbiScope&) = delete;

  bool entered() const { return entered_; }

 private:
  bool entered_;
};

SessionBackend& backend() { return Session::instance().backend(); }

/// The shared slow-path body; callers hold the AbiScope. Protocol:
///  1. Re-sync the calling thread's fast-path descriptor against the
///     global generation (a Session::reset() since the last arm makes
///     every cached pointer in it untrustworthy).
///  2. Drop-policy gate: one draw per event, through admit_and_refill so
///     the freshly drawn skip-gap lands in the descriptor and subsequent
///     sampled-out accesses resolve entirely inline. Only the descriptor's
///     generation+countdown half is armed here - the cell half stays
///     disarmed under sampling so inline hits can't bypass the gate.
///  3. Dispatch through the session backend (created on the first event),
///     the route every other event takes. One entry per direction covers
///     every size: the shadow space picks the scalar or range path itself.
///  4. Consume the event context exactly once, on the way out - the
///     single clear the whole access path performs (inline hits neither
///     read nor clear it).
void slow_access(const void* addr, size_t size, bool is_write) {
  vft_fastpath_s& fp = vft_tl_fastpath;
  const uint64_t gen =
      __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE);
  if (fp.gen != 0 && fp.gen != gen) fp = vft_fastpath_s{};
  // Credit the inline path's pending hit tallies before dispatching: every
  // slow-path entry is a quiescent point at which the rule counters must
  // equal what the out-of-line path would have produced.
  if (fp.gen == gen) vft_fastpath_flush_hits(&fp);
  if (vft::sampling::Gate::drop_policy_active()) {
    if (vft::sampling::Gate* g = vft::sampling::Gate::active()) {
      fp.gen = gen;
      if (!g->admit_and_refill(addr, &fp)) {
        vft_tl_event_ctx.pc = nullptr;
        return;
      }
    }
  }
  SessionBackend& b = backend();
  if (is_write) {
    b.write(addr, size);
  } else {
    b.read(addr, size);
  }
  vft_tl_event_ctx.pc = nullptr;
}

/// Clamp an untrusted morder from the target to the ABI range; anything
/// out of range degrades to seq_cst (the conservative reading). Atomics
/// never route through the inline descriptor, so their entries dispatch
/// straight to the backend with no descriptor re-sync.
int clamp_mo(int mo) { return mo >= 0 && mo <= 5 ? mo : 5; }

int write_report(const char* path, int json, int clean) {
  // Snapshot first, open the file second: on the crash path the document
  // is built before any stdio state is trusted with it.
  const vft::reportio::ReportDoc doc =
      Session::instance().report_doc(clean != 0);
  const std::string text = json != 0 ? vft::reportio::render_json(doc)
                                     : vft::reportio::render_plain(doc);
  std::FILE* out = stderr;
  bool owned = false;
  if (path != nullptr && std::strcmp(path, "-") != 0) {
    out = std::fopen(path, "w");
    if (out == nullptr) return -1;
    owned = true;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (owned) {
    if (std::fclose(out) != 0) return -1;
  } else {
    std::fflush(out);
  }
  return ok ? 0 : -1;
}

}  // namespace

extern "C" {

int vft_attach(void) {
  AbiScope guard;
  if (!guard.entered()) return 0;
  return backend().attach() ? 1 : 0;
}

void vft_detach(void) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().detach();
}

uint64_t vft_thread_create(void) {
  AbiScope guard;
  if (!guard.entered()) return 0;
  return backend().thread_create();
}

void vft_thread_begin(uint64_t token) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().thread_begin(token);
}

void vft_thread_join(uint64_t token) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().thread_join(token);
}

void vft_thread_detach(uint64_t token) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().thread_detach(token);
}

/// Access entry points: the header-inlined try first (same-epoch hit or
/// drop-policy sampled-out skip resolves with no call at all - no
/// AbiScope, no dispatch, no event-context store), then the guarded
/// slow path. The try-functions touch nothing but the thread's own
/// descriptor and the cell word, so running them outside the reentrancy
/// guard is safe; analysis-internal code never calls these sized entry
/// points anyway.
///
/// The drop-policy sampling gate lives in slow_access, before the session
/// dispatch: a sampled-out access under `VFT_SAMPLING=policy=drop` costs
/// one inline TLS countdown decrement once the descriptor is armed. The
/// gate is null until the first event creates the session, so the first
/// access always falls through and initializes everything.
#define VFT_ABI_READ(name, size)                         \
  void name(const void* addr) {                          \
    if (vft_fastpath_try_read(addr, (size))) return;     \
    AbiScope guard;                                      \
    if (!guard.entered()) return;                        \
    slow_access(addr, (size), /*is_write=*/false);       \
  }
#define VFT_ABI_WRITE(name, size)                        \
  void name(const void* addr) {                          \
    if (vft_fastpath_try_write(addr, (size))) return;    \
    AbiScope guard;                                      \
    if (!guard.entered()) return;                        \
    slow_access(addr, (size), /*is_write=*/true);        \
  }

VFT_ABI_READ(vft_read1, 1)
VFT_ABI_READ(vft_read2, 2)
VFT_ABI_READ(vft_read4, 4)
VFT_ABI_READ(vft_read8, 8)
VFT_ABI_WRITE(vft_write1, 1)
VFT_ABI_WRITE(vft_write2, 2)
VFT_ABI_WRITE(vft_write4, 4)
VFT_ABI_WRITE(vft_write8, 8)

#undef VFT_ABI_READ
#undef VFT_ABI_WRITE

int vft_abi_in_runtime(void) { return tl_in_abi ? 1 : 0; }

void vft_abi_slow_read(const void* addr, size_t size) {
  AbiScope guard;
  if (!guard.entered()) return;
  slow_access(addr, size, /*is_write=*/false);
}

void vft_abi_slow_write(const void* addr, size_t size) {
  AbiScope guard;
  if (!guard.entered()) return;
  slow_access(addr, size, /*is_write=*/true);
}

/// A zero-size range is an empty event, but still a slow-path exit: it
/// consumes the event context its wrapper armed, like every other exit.
/// The nested-guard exit leaves the context alone - it belongs to the
/// outer event still in flight.
void vft_range_read(const void* addr, size_t size) {
  AbiScope guard;
  if (!guard.entered()) return;
  if (size == 0) {
    vft_tl_event_ctx.pc = nullptr;
    return;
  }
  // One gate draw covers the whole range: a range is one program event.
  // A drop-countdown skip the inline path prepaid also covers it (ranges
  // and straddles arriving mid-gap consume one unit in admit_and_refill).
  slow_access(addr, size, /*is_write=*/false);
}

void vft_range_write(const void* addr, size_t size) {
  AbiScope guard;
  if (!guard.entered()) return;
  if (size == 0) {
    vft_tl_event_ctx.pc = nullptr;
    return;
  }
  slow_access(addr, size, /*is_write=*/true);
}

void vft_atomic_load(const void* addr, int mo) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().atomic_load(addr, clamp_mo(mo));
}

void vft_atomic_store(const void* addr, int mo) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().atomic_store(addr, clamp_mo(mo));
}

void vft_atomic_rmw_pre(const void* addr, int mo) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().atomic_rmw_pre(addr, clamp_mo(mo));
}

void vft_atomic_rmw_post(const void* addr, int mo) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().atomic_rmw_post(addr, clamp_mo(mo));
}

void vft_atomic_fence(int mo) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().atomic_fence(clamp_mo(mo));
}

void vft_mutex_lock(const void* m) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().mutex_lock(m);
}

void vft_mutex_unlock(const void* m) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().mutex_unlock(m);
}

void vft_free_hint(const void* addr, size_t size) {
  AbiScope guard;
  if (!guard.entered()) return;
  backend().free_hint(addr, size);
}

size_t vft_race_count(void) {
  AbiScope guard;
  if (!guard.entered()) return 0;
  return Session::instance().races().count();
}

size_t vft_suppressed_count(void) {
  AbiScope guard;
  if (!guard.entered()) return 0;
  return Session::instance().races().suppressed();
}

int vft_suppressions_load(const char* path) {
  AbiScope guard;
  if (!guard.entered() || path == nullptr) return -1;
  std::string err;
  if (!Session::instance().races().load_suppressions(path, &err)) {
    std::fprintf(stderr, "vft: %s\n", err.c_str());
    return -1;
  }
  return 0;
}

int vft_report_write(const char* path, int json) {
  AbiScope guard;
  if (!guard.entered()) return -1;
  return write_report(path, json, /*clean=*/1);
}

int vft_report_write_ex(const char* path, int json, int clean) {
  AbiScope guard;
  if (!guard.entered()) return -1;
  return write_report(path, json, clean);
}

const char* vft_detector_name(void) {
  AbiScope guard;
  return backend().detector_name();
}

const char* vft_sampling_describe(void) {
  AbiScope guard;
  backend();  // force session creation so the gate reflects the env
  static std::string text;
  vft::sampling::Gate* g = vft::sampling::Gate::active();
  text = g != nullptr ? vft::sampling::describe(g->config()) : "off";
  return text.c_str();
}

int vft_sampling_stats(vft_sampling_stats_s* out) {
  AbiScope guard;
  if (out == nullptr) return 0;
  std::memset(out, 0, sizeof(*out));
  vft::sampling::Gate* g = vft::sampling::Gate::active();
  if (g == nullptr) return 0;
  const vft::sampling::Stats s = g->snapshot();
  out->sampled = s.sampled;
  out->skipped = s.skipped;
  out->cooled_out = s.cooled_out;
  out->reheats = s.reheats;
  out->overhead_ns = s.overhead_ns;
  out->busy_ns = s.busy_ns;
  out->adjustments = s.adjustments;
  out->rate = s.rate;
  out->overhead_pct = s.overhead_pct;
  return 1;
}

}  // extern "C"
