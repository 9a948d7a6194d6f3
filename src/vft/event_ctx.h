/* The per-thread interposition-boundary context for race stack capture.
 *
 * Written by the __tsan_* access wrappers (two plain stores: the
 * instrumented call site's return address and the wrapper's own frame
 * address) immediately before forwarding an access event; consumed by
 * capture_event_stack() (vft/stack.h) when a race fires during the
 * access it describes, and cleared by the runtime afterwards so a stale
 * boundary can never describe the wrong access.
 *
 * Plain C so the preload library and foreign bindings can write it with
 * no C++ dependency. Shared by vft/stack.h and abi/vft_abi.h; defined in
 * vft/stack.cpp.
 */
#ifndef VFT_VFT_EVENT_CTX_H_
#define VFT_VFT_EVENT_CTX_H_

#include <stdint.h>

#ifdef __cplusplus
#define VFT_EVENT_CTX_TLS constinit thread_local
extern "C" {
#else
#define VFT_EVENT_CTX_TLS __thread
#endif

typedef struct vft_event_ctx_s {
  const void* pc; /* return address into the target (the access site) */
  const void* fp; /* the boundary wrapper's frame address */
} vft_event_ctx_s;

extern VFT_EVENT_CTX_TLS vft_event_ctx_s vft_tl_event_ctx;

/* Per-thread shadow call stack, maintained by __tsan_func_entry/exit
 * (the compiler instruments every function's prologue/epilogue with the
 * call site's return address). capture_event_stack() falls back to it
 * when the frame-pointer walk comes up empty - targets compiled with
 * -fomit-frame-pointer still get race stacks this way. depth keeps
 * counting past the cap so deep recursion stays balanced; only the
 * outermost VFT_SHADOW_STACK_MAX call sites are recorded. */
#define VFT_SHADOW_STACK_MAX 64

typedef struct vft_shadow_stack_s {
  uint32_t depth; /* live frames; may exceed VFT_SHADOW_STACK_MAX */
  const void* pc[VFT_SHADOW_STACK_MAX];
} vft_shadow_stack_s;

extern VFT_EVENT_CTX_TLS vft_shadow_stack_s vft_tl_shadow_stack;

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_VFT_EVENT_CTX_H_ */
