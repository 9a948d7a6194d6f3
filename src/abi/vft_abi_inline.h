/* Header-inlined C-callable fast path for the per-access ABI surface.
 *
 * Compiled directly into the interposer's __tsan_* wrappers and into the
 * vft_read1..8 / vft_write1..8 entry points: the same-epoch hit and the
 * drop-policy
 * sampled-out skip resolve entirely inline against the per-thread
 * descriptor (vft/fastpath_ctx.h) - no call, no AbiScope construction, no
 * virtual dispatch, no vft_tl_event_ctx stores. Everything else returns 0
 * and the caller takes the out-of-line slow path (vft_abi_slow_read/write),
 * which re-arms the descriptor for the next access.
 *
 * Soundness of the two inline verdicts:
 *
 *   Read hit:  the packed cell's R half equals this thread's current epoch
 *     e = c@t. Epochs cap the clock at 2^24-2 and the tid at 254, so a live
 *     epoch is never 0xFFFFFFFF and the comparison can never confuse a
 *     same-epoch read with the ESCALATING/ESCALATED sentinels (whose R half
 *     is all-ones). R == e proves this thread already recorded a read at
 *     this epoch - the FastTrack [Read Same Epoch] no-op.
 *
 *   Write hit: the W half equals e AND the R half is not all-ones. The
 *     second conjunct is required: the ESCALATED sentinel's W half is 1,
 *     which collides with tid 0 at clock 1, so W alone could match a
 *     spilled cell. With both checks this is the [Write Same Epoch] no-op.
 *
 *   Sampled-out skip: the descriptor holds a prepaid geometric countdown
 *     drawn by the gate's slow path; decrementing it inline is exactly the
 *     drop-policy gate semantics (no cell update, no detector), with the
 *     skip count flushed to the gate at the next slow-path entry.
 *
 * The cell load is an acquire load, matching the out-of-line packed_access
 * ordering. A hit only increments a plain thread-local tally in the
 * descriptor (two shared-counter RMWs per access would cost more
 * than the dispatch the inline path saves); the runtime flushes the
 * tallies into the session's RuleStats at every slow-path entry, re-arm,
 * and detach, so at any quiescent observation point the counters are
 * bit-identical to the out-of-line path's (asserted by
 * tests/fastpath_test.cpp).
 *
 * Under VFT_SCHED every shared access must pass through the announce/park
 * seam, which the inline path bypasses by design; the try-functions
 * compile to `return 0` so the scheduler sees every access.
 */
#ifndef VFT_ABI_VFT_ABI_INLINE_H_
#define VFT_ABI_VFT_ABI_INLINE_H_

#include <stddef.h>
#include <stdint.h>

#include "vft/fastpath_ctx.h"

#ifdef __cplusplus
extern "C" {
#endif

/* Shadow geometry mirrored from runtime/shadow_space.h (static_asserted
 * against the real constants at the arming site in runtime/session.h). */
#define VFT_FASTPATH_GRANULARITY_LOG2 3
#define VFT_FASTPATH_PAGE_SPAN ((uintptr_t)4096)
#define VFT_FASTPATH_SLOT_MASK ((uintptr_t)511)

/* Out-of-line continuations (abi/vft_abi.cpp): full AbiScope + gate +
 * session backend dispatch, then descriptor re-arm. */
void vft_abi_slow_read(const void* addr, size_t size);
void vft_abi_slow_write(const void* addr, size_t size);

#ifdef VFT_SCHED

static inline int vft_fastpath_try_read(const void* addr, size_t size) {
  (void)addr;
  (void)size;
  return 0;
}

static inline int vft_fastpath_try_write(const void* addr, size_t size) {
  (void)addr;
  (void)size;
  return 0;
}

#else /* !VFT_SCHED */

/* Shared prologue: descriptor liveness, sampling countdown, and the cell
 * lookup. Returns 1 when the access was fully resolved inline. `is_write`
 * is a compile-time constant at every call site, so the branch folds. */
static inline int vft_fastpath_try_access(const void* addr, size_t size,
                                          int is_write) {
  vft_fastpath_s* fp = &vft_tl_fastpath;
  /* TLS-only staleness check first: a never-armed thread pays one load. */
  if (fp->gen == 0) return 0;
  if (__atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE) != fp->gen) {
    return 0;
  }
  /* Drop-policy sampled-out skip: checked before the straddle/page tests
   * so one countdown draw covers every access shape, exactly like the
   * out-of-line drop gate. */
  if (fp->drop_countdown > 0) {
    fp->drop_countdown--;
    fp->drop_pending++;
    return 1;
  }
  const uintptr_t a = (uintptr_t)addr;
  /* Word-straddling accesses take the slow path (two cells). */
  if (((a & ((1u << VFT_FASTPATH_GRANULARITY_LOG2) - 1)) + size) >
      (1u << VFT_FASTPATH_GRANULARITY_LOG2)) {
    return 0;
  }
  if (fp->cells == 0 ||
      (a & ~(VFT_FASTPATH_PAGE_SPAN - 1)) != fp->page_base) {
    return 0;
  }
  const uint64_t cell = __atomic_load_n(
      &fp->cells[(a >> VFT_FASTPATH_GRANULARITY_LOG2) & VFT_FASTPATH_SLOT_MASK],
      __ATOMIC_ACQUIRE);
  const uint32_t e = *fp->epoch_addr;
  if (is_write) {
    if ((uint32_t)cell != e || (uint32_t)(cell >> 32) == 0xFFFFFFFFu) {
      return 0;
    }
    fp->hit_writes++;
  } else {
    if ((uint32_t)(cell >> 32) != e) return 0;
    fp->hit_reads++;
  }
  return 1;
}

static inline int vft_fastpath_try_read(const void* addr, size_t size) {
  return vft_fastpath_try_access(addr, size, 0);
}

static inline int vft_fastpath_try_write(const void* addr, size_t size) {
  return vft_fastpath_try_access(addr, size, 1);
}

#endif /* VFT_SCHED */

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_ABI_VFT_ABI_INLINE_H_ */
