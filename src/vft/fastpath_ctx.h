/* The per-thread fast-path descriptor for the header-inlined ABI hot path.
 *
 * Armed by the runtime (SessionImpl) after a slow-path access establishes
 * the thread's shadow page and epoch; consumed by the inline try-functions
 * in abi/vft_abi_inline.h, which resolve the same-epoch hit with no
 * call, no AbiScope, and no virtual dispatch. The session layer is its
 * only writer: SessionImpl arms it, flushes its hit tallies into the rule
 * counters, and clears it; Session::reset retracts it.
 *
 * Validity protocol: the descriptor is live iff `gen` equals the process
 * global vft_g_fastpath_gen (which starts at 1 and is bumped on every
 * Session::reset / detector re-selection; a thread-local gen of 0 is
 * always stale). Every pointer dereference in the inline path is guarded
 * by that comparison, so retraction is a single atomic increment - no
 * per-thread teardown is needed. `epoch_addr` points at the owning
 * thread's cached epoch (only the owner mutates it, so it is always
 * fresh); `cells` points at the packed-cell array of the shadow page
 * covering `page_base`; the rule pointers target the owning thread's
 * shard of the session's RuleStats counters (filled in when the owner
 * stamps a stale or cleared descriptor), so an inline hit bumps exactly
 * what the out-of-line path would.
 *
 * Plain C so the preload library can use it with no C++ dependency.
 * Defined in vft/stack.cpp next to the event context it complements.
 */
#ifndef VFT_VFT_FASTPATH_CTX_H_
#define VFT_VFT_FASTPATH_CTX_H_

#include <stdint.h>

#ifdef __cplusplus
#define VFT_FASTPATH_TLS constinit thread_local
extern "C" {
#else
#define VFT_FASTPATH_TLS __thread
#endif

typedef struct vft_fastpath_s {
  uint64_t gen;               /* == vft_g_fastpath_gen when live; 0 = stale */
  const uint32_t* epoch_addr; /* owning thread's current epoch bits */
  uintptr_t page_base;        /* first target byte covered by `cells` */
  const uint64_t* cells;      /* packed cells of the cached shadow page */
  uint64_t hit_reads;         /* inline read hits pending counter flush */
  uint64_t hit_writes;        /* inline write hits pending counter flush */
  uint64_t* rule_read[2];     /* counters credited with flushed read hits */
  uint64_t* rule_write[2];    /* counters credited with flushed write hits */
} vft_fastpath_s;

extern VFT_FASTPATH_TLS vft_fastpath_s vft_tl_fastpath;

/* Process-wide descriptor generation. Read with acquire in the inline
 * path; incremented (release) by Session::reset to retract every armed
 * descriptor at once. */
extern uint64_t vft_g_fastpath_gen;

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_VFT_FASTPATH_CTX_H_ */
