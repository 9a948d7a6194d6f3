/* Header-inlined C-callable fast path for the per-access ABI surface.
 *
 * Compiled directly into the interposer's __tsan_* wrappers and into the
 * vft_read1..8 / vft_write1..8 entry points: the same-epoch hit resolves
 * entirely inline against the per-thread descriptor (vft/fastpath_ctx.h) -
 * no call, no AbiScope construction, no virtual dispatch, no
 * vft_tl_event_ctx stores. Everything else returns 0 and the caller takes
 * the out-of-line slow path (vft_abi_slow_read/write), whose session entry
 * flushes and re-arms the descriptor for the next access. This header
 * only reads the descriptor; the session layer is its one writer.
 *
 * The verdict is the cell contract's vft_cell_same_epoch
 * (vft/packed_cell_bits.h), the function PackedCell::fast runs too, so
 * the inline path can only complete an access that the packed cell would
 * complete as [Read/Write Same Epoch]. The cell load is an acquire load,
 * matching the out-of-line packed_access ordering.
 *
 * A hit only increments a plain thread-local tally in the descriptor
 * (two locked adds per access, even on the thread's own counter shard,
 * would cost more than the dispatch the inline path saves); the session
 * flushes the tallies into the thread's shard of its RuleStats at every
 * out-of-line access, thread_begin, and detach, so at any quiescent
 * observation point the counters are bit-identical to the out-of-line
 * path's (asserted by tests/fastpath_test.cpp).
 *
 * Sched builds never arm the descriptor (every shared access must cross
 * the announce/park seam), so there the try returns 0 at its first load.
 */
#ifndef VFT_ABI_VFT_ABI_INLINE_H_
#define VFT_ABI_VFT_ABI_INLINE_H_

#include <stddef.h>
#include <stdint.h>

#include "vft/fastpath_ctx.h"
#include "vft/packed_cell_bits.h"

#ifdef __cplusplus
extern "C" {
#endif

/* Out-of-line continuations (abi/vft_abi.cpp): full AbiScope + session
 * backend dispatch, whose access entry flushes and re-arms the descriptor. */
void vft_abi_slow_read(const void* addr, size_t size);
void vft_abi_slow_write(const void* addr, size_t size);

/* Shared prologue: descriptor liveness and the cell lookup. Returns 1 when
 * the access was fully resolved inline. `is_write` is a compile-time
 * constant at every call site, so the branch folds. */
static inline int vft_fastpath_try_access(const void* addr, size_t size,
                                          int is_write) {
  vft_fastpath_s* fp = &vft_tl_fastpath;
  /* TLS-only staleness check first: a never-armed thread pays one load. */
  if (fp->gen == 0) return 0;
  if (__atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE) != fp->gen) {
    return 0;
  }
  const uintptr_t a = (uintptr_t)addr;
  if (!vft_cell_one_word(a, size)) return 0;
  if (fp->cells == 0 || vft_cell_page_base(a) != fp->page_base) return 0;
  const uint64_t cell =
      __atomic_load_n(&fp->cells[vft_cell_slot(a)], __ATOMIC_ACQUIRE);
  if (!vft_cell_same_epoch(cell, *fp->epoch_addr, is_write)) return 0;
  if (is_write) {
    fp->hit_writes++;
  } else {
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

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_ABI_VFT_ABI_INLINE_H_ */
