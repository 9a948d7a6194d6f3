// libvft_preload: run the analysis under an *unmodified* target binary.
//
// Two event sources feed the C ABI (src/abi/vft_abi.h):
//
//   Synchronization - this library defines the pthread entry points the
//   target calls (pthread_create/join/detach, mutex lock/trylock/unlock,
//   condvar waits, spin locks, semaphore post and waits) and forwards
//   to the real libc implementation resolved with dlsym(RTLD_NEXT).
//   Works both via LD_PRELOAD (the `vft run` launcher) and by linking the
//   target against this library directly.
//
//   Memory accesses - an OS-level wrapper cannot see plain loads and
//   stores, so the target is compiled with GCC/Clang's
//   `-fsanitize=thread` *compile-only* instrumentation (no -fsanitize at
//   link, so libtsan never enters the process) and this library provides
//   the __tsan_* surface those compilers emit, mapping it onto
//   vft_read*/vft_write*. This is the substitution for RoadRunner's
//   bytecode instrumentation at the native level: the compiler inserts
//   the event calls, we supply the tool behind them.
//
// Ordering discipline (ALGORITHM.md Section 4) is enforced here, at the
// boundary where target operations actually happen:
//   - the acquire handler runs *after* the native lock call succeeded
//     (only a successful acquire orders the critical section);
//   - the join handler runs *after* the native join returned (only then
//     is the child's final clock stable);
//   - release, fork, and access handlers run *before* their operation.
//
// Thread exit is observed with a pthread_key destructor: it fires during
// thread termination after C++ thread_locals are destroyed, whether the
// thread returned from its start routine or called pthread_exit. The
// library constructor attaches the main thread; its destructor detaches
// it and writes the end-of-run report (VFT_REPORT=<path>, JSON when the
// path ends in ".json"; always a one-line summary to stderr).
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <malloc.h>
#include <pthread.h>
#include <semaphore.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#include "abi/vft_abi.h"
#include "abi/vft_abi_inline.h"
#include "vft/epoch.h"

namespace {

// ---------------------------------------------------------------------
// Real-function resolution. Eager where possible (library constructor);
// free() additionally resolves lazily because the dynamic linker can
// call it before our constructor runs.
// ---------------------------------------------------------------------

template <typename Fn>
Fn resolve(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
using JoinFn = int (*)(pthread_t, void**);
using DetachFn = int (*)(pthread_t);
using MutexFn = int (*)(pthread_mutex_t*);
using CondWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*);
using CondTimedWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*,
                                const struct timespec*);
using SemFn = int (*)(sem_t*);
using SemTimedWaitFn = int (*)(sem_t*, const struct timespec*);
using SpinFn = int (*)(pthread_spinlock_t*);
using FreeFn = void (*)(void*);
using MunmapFn = int (*)(void*, size_t);
using MemcpyFn = void* (*)(void*, const void*, size_t);
using MemsetFn = void* (*)(void*, int, size_t);
using BzeroFn = void (*)(void*, size_t);
using StrlenFn = size_t (*)(const char*);
using StrnlenFn = size_t (*)(const char*, size_t);
using StrcpyFn = char* (*)(char*, const char*);
using StrncpyFn = char* (*)(char*, const char*, size_t);
using StrcatFn = char* (*)(char*, const char*);

CreateFn real_create;
JoinFn real_join;
DetachFn real_detach;
MutexFn real_mutex_lock;
MutexFn real_mutex_trylock;
MutexFn real_mutex_unlock;
CondWaitFn real_cond_wait;
CondTimedWaitFn real_cond_timedwait;
SemFn real_sem_post;
SemFn real_sem_wait;
SemFn real_sem_trywait;
SemTimedWaitFn real_sem_timedwait;
SpinFn real_spin_lock;
SpinFn real_spin_trylock;
SpinFn real_spin_unlock;
FreeFn real_free;
MunmapFn real_munmap;
MemcpyFn real_memcpy;
MemcpyFn real_memmove;
MemsetFn real_memset;
BzeroFn real_bzero;
StrlenFn real_strlen;
StrnlenFn real_strnlen;
StrcpyFn real_strcpy;
StrncpyFn real_strncpy;
StrcatFn real_strcat;

/// Set at the end of the library constructor: mem*/str* calls before the
/// analysis is up (dynamic-linker bootstrap, early libc init) forward no
/// events - they run against memory no target thread has touched yet.
volatile int g_mem_ready = 0;

void resolve_all() {
  real_create = resolve<CreateFn>("pthread_create");
  real_join = resolve<JoinFn>("pthread_join");
  real_detach = resolve<DetachFn>("pthread_detach");
  real_mutex_lock = resolve<MutexFn>("pthread_mutex_lock");
  real_mutex_trylock = resolve<MutexFn>("pthread_mutex_trylock");
  real_mutex_unlock = resolve<MutexFn>("pthread_mutex_unlock");
  real_cond_wait = resolve<CondWaitFn>("pthread_cond_wait");
  real_cond_timedwait = resolve<CondTimedWaitFn>("pthread_cond_timedwait");
  real_sem_post = resolve<SemFn>("sem_post");
  real_sem_wait = resolve<SemFn>("sem_wait");
  real_sem_trywait = resolve<SemFn>("sem_trywait");
  real_sem_timedwait = resolve<SemTimedWaitFn>("sem_timedwait");
  real_spin_lock = resolve<SpinFn>("pthread_spin_lock");
  real_spin_trylock = resolve<SpinFn>("pthread_spin_trylock");
  real_spin_unlock = resolve<SpinFn>("pthread_spin_unlock");
  real_free = resolve<FreeFn>("free");
  real_munmap = resolve<MunmapFn>("munmap");
  real_memcpy = resolve<MemcpyFn>("memcpy");
  real_memmove = resolve<MemcpyFn>("memmove");
  real_memset = resolve<MemsetFn>("memset");
  real_bzero = resolve<BzeroFn>("bzero");
  real_strlen = resolve<StrlenFn>("strlen");
  real_strnlen = resolve<StrnlenFn>("strnlen");
  real_strcpy = resolve<StrcpyFn>("strcpy");
  real_strncpy = resolve<StrncpyFn>("strncpy");
  real_strcat = resolve<StrcatFn>("strcat");
}

// ---------------------------------------------------------------------
// Thread-exit observation: a key whose destructor runs as the thread
// terminates. Set for every thread we trampoline (and the main thread
// is covered by the library destructor instead).
// ---------------------------------------------------------------------

pthread_key_t g_end_key;
pthread_once_t g_end_key_once = PTHREAD_ONCE_INIT;

void on_thread_end(void*) { vft_detach(); }

void make_end_key() { pthread_key_create(&g_end_key, on_thread_end); }

void arm_thread_end() {
  pthread_once(&g_end_key_once, make_end_key);
  pthread_setspecific(g_end_key, reinterpret_cast<void*>(1));
}

// ---------------------------------------------------------------------
// pthread_t -> analysis token map, for routing join/detach. A plain
// open-addressed table under a libc mutex (no C++ containers here: this
// code runs inside malloc/free interposition paths).
// ---------------------------------------------------------------------

struct TokenEntry {
  pthread_t tid;
  uint64_t token;
  int used;
};

// A token is put only for a monitored joinable child, which holds its tid
// slot until the join or detach that takes the token, so no more tokens
// are live than tid slots and token_put always finds a free entry. A full
// table would lose the child's join edge: false races on everything the
// child wrote, and a tid slot that is never retired.
constexpr size_t kTokenSlots = 256;
static_assert(kTokenSlots > vft::Epoch::kMaxTid, "an entry per tid slot");
TokenEntry g_tokens[kTokenSlots];
pthread_mutex_t g_tokens_mu = PTHREAD_MUTEX_INITIALIZER;

void token_put(pthread_t tid, uint64_t token) {
  real_mutex_lock(&g_tokens_mu);
  for (size_t i = 0; i < kTokenSlots; ++i) {
    if (!g_tokens[i].used) {
      g_tokens[i] = TokenEntry{tid, token, 1};
      break;
    }
  }
  real_mutex_unlock(&g_tokens_mu);
}

uint64_t token_take(pthread_t tid) {
  real_mutex_lock(&g_tokens_mu);
  for (size_t i = 0; i < kTokenSlots; ++i) {
    if (g_tokens[i].used && pthread_equal(g_tokens[i].tid, tid)) {
      g_tokens[i].used = 0;
      const uint64_t token = g_tokens[i].token;
      real_mutex_unlock(&g_tokens_mu);
      return token;
    }
  }
  real_mutex_unlock(&g_tokens_mu);
  return 0;
}

// ---------------------------------------------------------------------
// Thread trampoline: binds the child to its pre-created ThreadState
// before a single target instruction runs in it.
// ---------------------------------------------------------------------

struct StartPack {
  void* (*fn)(void*);
  void* arg;
  uint64_t token;
};

void* trampoline(void* raw) {
  StartPack* heap_pack = static_cast<StartPack*>(raw);
  StartPack pack = *heap_pack;
  if (real_free != nullptr) real_free(heap_pack);
  vft_thread_begin(pack.token);
  arm_thread_end();
  return pack.fn(pack.arg);
}

bool attr_is_detached(const pthread_attr_t* attr) {
  if (attr == nullptr) return false;
  int state = PTHREAD_CREATE_JOINABLE;
  pthread_attr_getdetachstate(attr, &state);
  return state == PTHREAD_CREATE_DETACHED;
}

}  // namespace

// ---------------------------------------------------------------------
// Interposed pthread surface.
// ---------------------------------------------------------------------

extern "C" {

int pthread_create(pthread_t* tid, const pthread_attr_t* attr,
                   void* (*fn)(void*), void* arg) {
  if (real_create == nullptr) resolve_all();
  const uint64_t token = vft_thread_create();  // fork handler: before create
  StartPack* pack = static_cast<StartPack*>(malloc(sizeof(StartPack)));
  if (pack == nullptr) return real_create(tid, attr, fn, arg);
  *pack = StartPack{fn, arg, token};
  const int rc = real_create(tid, attr, trampoline, pack);
  if (rc != 0) {
    if (real_free != nullptr) real_free(pack);
    vft_thread_join(token);  // child never existed: reclaim its slot
    return rc;
  }
  if (token != 0) {
    if (attr_is_detached(attr)) {
      vft_thread_detach(token);
    } else {
      token_put(*tid, token);
    }
  }
  return rc;
}

int pthread_join(pthread_t tid, void** retval) {
  if (real_join == nullptr) resolve_all();
  const int rc = real_join(tid, retval);
  if (rc == 0) {
    vft_thread_join(token_take(tid));  // join handler: after native join
  }
  return rc;
}

int pthread_detach(pthread_t tid) {
  if (real_detach == nullptr) resolve_all();
  const int rc = real_detach(tid);
  if (rc == 0) vft_thread_detach(token_take(tid));
  return rc;
}

int pthread_mutex_lock(pthread_mutex_t* m) {
  if (real_mutex_lock == nullptr) resolve_all();
  const int rc = real_mutex_lock(m);
  if (rc == 0) vft_mutex_lock(m);  // acquire handler: after the acquire
  return rc;
}

int pthread_mutex_trylock(pthread_mutex_t* m) {
  if (real_mutex_trylock == nullptr) resolve_all();
  const int rc = real_mutex_trylock(m);
  if (rc == 0) vft_mutex_lock(m);  // only a successful trylock acquires
  return rc;
}

int pthread_mutex_unlock(pthread_mutex_t* m) {
  if (real_mutex_unlock == nullptr) resolve_all();
  vft_mutex_unlock(m);  // release handler: before the release
  return real_mutex_unlock(m);
}

// A condvar wait releases the mutex, blocks, and reacquires: model it as
// exactly that - release handler before the wait, acquire handler after
// the (always reacquiring) return, timeout or not.
int pthread_cond_wait(pthread_cond_t* c, pthread_mutex_t* m) {
  if (real_cond_wait == nullptr) resolve_all();
  vft_mutex_unlock(m);
  const int rc = real_cond_wait(c, m);
  vft_mutex_lock(m);
  return rc;
}

int pthread_cond_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                           const struct timespec* abstime) {
  if (real_cond_timedwait == nullptr) resolve_all();
  vft_mutex_unlock(m);
  const int rc = real_cond_timedwait(c, m, abstime);
  vft_mutex_lock(m);
  return rc;
}

// A semaphore is the atomic release/acquire pair on its address: posters
// are unordered, so a post must *join* into the semaphore's clock (the
// atomic store's publication, not [Release]'s copy), and only a wait that
// took a count (returned 0) acquires it.
static int sem_acquired(sem_t* s, int rc) {
  if (rc == 0) vft_atomic_rmw_post(s, __ATOMIC_ACQUIRE);
  return rc;
}

int sem_post(sem_t* s) {
  if (real_sem_post == nullptr) resolve_all();
  vft_atomic_rmw_pre(s, __ATOMIC_RELEASE);  // release: before the post
  return real_sem_post(s);
}

int sem_wait(sem_t* s) {
  if (real_sem_wait == nullptr) resolve_all();
  return sem_acquired(s, real_sem_wait(s));
}

int sem_trywait(sem_t* s) {
  if (real_sem_trywait == nullptr) resolve_all();
  return sem_acquired(s, real_sem_trywait(s));
}

int sem_timedwait(sem_t* s, const struct timespec* abstime) {
  if (real_sem_timedwait == nullptr) resolve_all();
  return sem_acquired(s, real_sem_timedwait(s, abstime));
}

// A spin lock is a mutex on the lock state of its address
// (pthread_spinlock_t is a volatile int; only the address is used).
int pthread_spin_lock(pthread_spinlock_t* l) {
  if (real_spin_lock == nullptr) resolve_all();
  const int rc = real_spin_lock(l);
  if (rc == 0) vft_mutex_lock(const_cast<const int*>(l));
  return rc;
}

int pthread_spin_trylock(pthread_spinlock_t* l) {
  if (real_spin_trylock == nullptr) resolve_all();
  const int rc = real_spin_trylock(l);
  if (rc == 0) vft_mutex_lock(const_cast<const int*>(l));
  return rc;
}

int pthread_spin_unlock(pthread_spinlock_t* l) {
  if (real_spin_unlock == nullptr) resolve_all();
  vft_mutex_unlock(const_cast<const int*>(l));
  return real_spin_unlock(l);
}

// ---------------------------------------------------------------------
// Memory-lifetime interposition: freed ranges reset their shadow and
// lock state so recycled addresses start from bottom.
// ---------------------------------------------------------------------

void free(void* p) {
  if (real_free == nullptr) {
    real_free = resolve<FreeFn>("free");
    if (real_free == nullptr) return;  // dlsym bootstrap: leak, don't crash
  }
  if (p != nullptr) vft_free_hint(p, malloc_usable_size(p));
  real_free(p);
}

int munmap(void* addr, size_t len) {
  if (real_munmap == nullptr) resolve_all();
  vft_free_hint(addr, len);
  return real_munmap(addr, len);
}

// ---------------------------------------------------------------------
// The __tsan_* surface `-fsanitize=thread` compilation emits; mapped
// onto the sized ABI events. Unaligned and 16-byte forms degrade to the
// range path inside the session when they straddle a shadow word.
//
// Each access wrapper first arms the per-thread capture boundary
// (vft/event_ctx.h): its return address is the instrumented access site
// in the target, and its frame address anchors the frame-pointer walk
// that reconstructs the target's stack *if* this access races. On the
// non-racing path these two stores are the entire cost (the bench's
// `report_ctx` section measures them); the ABI clears the boundary on
// the way out.
// ---------------------------------------------------------------------

#define VFT_ARM_EVENT_CTX()                              \
  do {                                                   \
    vft_tl_event_ctx.pc = __builtin_return_address(0);   \
    vft_tl_event_ctx.fp = __builtin_frame_address(0);    \
  } while (0)

void __tsan_init(void) {}

// Shadow call stack (vft/event_ctx.h): the compiler instruments every
// function prologue with the call site's return address and every
// epilogue with an exit. A few TLS stores per call on the hot path; the
// payoff is that __tsan_*-sourced race reports carry caller stacks even
// for targets built without frame pointers (capture_event_stack falls
// back to this stack when the fp walk dies). depth counts past the cap
// so deep recursion unwinds balanced. Both also bump the call serial
// that keys the access history's record memo.
void __tsan_func_entry(void* call_pc) { vft_shadow_stack_enter(call_pc); }
void __tsan_func_exit(void) { vft_shadow_stack_exit(); }

// Sized wrappers compile the header-inlined fast path directly into the
// interposition boundary: a same-epoch hit returns before any call, any
// AbiScope, and any event-context store. Only an inline miss arms the
// capture boundary - the slow path is the only consumer, and a hit cannot
// race.
//
// The trailing barrier keeps the slow call out of tail position: a
// sibling-call would pop this frame (and the armed fp anchor) before the
// detector runs, so a race would walk freed stack instead of the caller
// chain.
#define VFT_TSAN_READ(name, size)                 \
  void name(void* a) {                            \
    if (vft_fastpath_try_read(a, (size))) return; \
    VFT_ARM_EVENT_CTX();                          \
    vft_abi_slow_read(a, (size));                 \
    asm volatile("" ::: "memory");                \
  }
#define VFT_TSAN_WRITE(name, size)                 \
  void name(void* a) {                             \
    if (vft_fastpath_try_write(a, (size))) return; \
    VFT_ARM_EVENT_CTX();                           \
    vft_abi_slow_write(a, (size));                 \
    asm volatile("" ::: "memory");                 \
  }
#define VFT_TSAN_RANGE(name, fwd)      \
  void name(void* a) {                 \
    VFT_ARM_EVENT_CTX();               \
    fwd;                               \
    asm volatile("" ::: "memory");     \
  }

VFT_TSAN_READ(__tsan_read1, 1)
VFT_TSAN_READ(__tsan_read2, 2)
VFT_TSAN_READ(__tsan_read4, 4)
VFT_TSAN_READ(__tsan_read8, 8)
VFT_TSAN_RANGE(__tsan_read16, vft_range_read(a, 16))
VFT_TSAN_WRITE(__tsan_write1, 1)
VFT_TSAN_WRITE(__tsan_write2, 2)
VFT_TSAN_WRITE(__tsan_write4, 4)
VFT_TSAN_WRITE(__tsan_write8, 8)
VFT_TSAN_RANGE(__tsan_write16, vft_range_write(a, 16))

VFT_TSAN_READ(__tsan_unaligned_read2, 2)
VFT_TSAN_READ(__tsan_unaligned_read4, 4)
VFT_TSAN_READ(__tsan_unaligned_read8, 8)
VFT_TSAN_RANGE(__tsan_unaligned_read16, vft_range_read(a, 16))
VFT_TSAN_WRITE(__tsan_unaligned_write2, 2)
VFT_TSAN_WRITE(__tsan_unaligned_write4, 4)
VFT_TSAN_WRITE(__tsan_unaligned_write8, 8)
VFT_TSAN_RANGE(__tsan_unaligned_write16, vft_range_write(a, 16))

#undef VFT_TSAN_READ
#undef VFT_TSAN_WRITE
#undef VFT_TSAN_RANGE

void __tsan_read_range(void* a, unsigned long size) {
  VFT_ARM_EVENT_CTX();
  vft_range_read(a, size);
}
void __tsan_write_range(void* a, unsigned long size) {
  VFT_ARM_EVENT_CTX();
  vft_range_write(a, size);
}

void __tsan_vptr_read(void** a) {
  if (vft_fastpath_try_read(a, 8)) return;
  VFT_ARM_EVENT_CTX();
  vft_abi_slow_read(a, 8);
  asm volatile("" ::: "memory");
}
void __tsan_vptr_update(void** a, void*) {
  if (vft_fastpath_try_write(a, 8)) return;
  VFT_ARM_EVENT_CTX();
  vft_abi_slow_write(a, 8);
  asm volatile("" ::: "memory");
}

// ---------------------------------------------------------------------
// __tsan_atomic*: with -fsanitize=thread the compiler replaces the
// atomic operation itself with these calls, so each wrapper must perform
// the REAL operation via the __atomic builtins *and* feed the sync
// halves to the analysis, in the Section 4 ordering: publish
// (vft_atomic_store / _rmw_pre) before the value becomes visible, join
// (vft_atomic_load / _rmw_post) after it was observed.
//
// The real operation runs with *hardened* hardware ordering - loads at
// least acquire, stores at least release, RMWs acq_rel (TSan's runtime
// makes the same choice). Strengthening the execution never hides a
// race from the clock analysis (verdicts come from the declared orders,
// which are forwarded to the ABI untouched), and it is what makes the
// runtime's fast-epoch protocol sound on any host: reading a value
// implies seeing its writer's sync-state updates. The declared order
// arrives as the TSan morder argument, which is numerically identical
// to __ATOMIC_* - it is passed through verbatim.
// ---------------------------------------------------------------------

#define VFT_HW_LOAD(mo) ((mo) == 5 ? __ATOMIC_SEQ_CST : __ATOMIC_ACQUIRE)
#define VFT_HW_STORE(mo) ((mo) == 5 ? __ATOMIC_SEQ_CST : __ATOMIC_RELEASE)
#define VFT_HW_RMW(mo) ((mo) == 5 ? __ATOMIC_SEQ_CST : __ATOMIC_ACQ_REL)
#define VFT_HW_FAIL(mo) ((mo) == 5 ? __ATOMIC_SEQ_CST : __ATOMIC_ACQUIRE)

#define VFT_TSAN_RMW(bits, type, name, builtin)                            \
  type __tsan_atomic##bits##_##name(volatile type* a, type v, int mo) {    \
    vft_atomic_rmw_pre((const void*)a, mo);                                \
    const type r = builtin(a, v, VFT_HW_RMW(mo));                          \
    vft_atomic_rmw_post((const void*)a, mo);                               \
    return r;                                                              \
  }

#define VFT_TSAN_ATOMIC(bits, type)                                        \
  type __tsan_atomic##bits##_load(const volatile type* a, int mo) {        \
    const type v = __atomic_load_n(a, VFT_HW_LOAD(mo));                    \
    vft_atomic_load((const void*)a, mo);                                   \
    return v;                                                              \
  }                                                                        \
  void __tsan_atomic##bits##_store(volatile type* a, type v, int mo) {     \
    vft_atomic_store((const void*)a, mo);                                  \
    __atomic_store_n(a, v, VFT_HW_STORE(mo));                              \
  }                                                                        \
  VFT_TSAN_RMW(bits, type, exchange, __atomic_exchange_n)                  \
  VFT_TSAN_RMW(bits, type, fetch_add, __atomic_fetch_add)                  \
  VFT_TSAN_RMW(bits, type, fetch_sub, __atomic_fetch_sub)                  \
  VFT_TSAN_RMW(bits, type, fetch_and, __atomic_fetch_and)                  \
  VFT_TSAN_RMW(bits, type, fetch_or, __atomic_fetch_or)                    \
  VFT_TSAN_RMW(bits, type, fetch_xor, __atomic_fetch_xor)                  \
  VFT_TSAN_RMW(bits, type, fetch_nand, __atomic_fetch_nand)                \
  int __tsan_atomic##bits##_compare_exchange_strong(                       \
      volatile type* a, type* c, type v, int mo, int fmo) {                \
    vft_atomic_rmw_pre((const void*)a, mo);                                \
    const int ok = __atomic_compare_exchange_n(                            \
        a, c, v, 0, VFT_HW_RMW(mo), VFT_HW_FAIL(fmo));                     \
    /* a failed CAS is a load: join with the failure order */              \
    vft_atomic_rmw_post((const void*)a, ok ? mo : fmo);                    \
    return ok;                                                             \
  }                                                                        \
  int __tsan_atomic##bits##_compare_exchange_weak(                         \
      volatile type* a, type* c, type v, int mo, int fmo) {                \
    return __tsan_atomic##bits##_compare_exchange_strong(a, c, v, mo,      \
                                                         fmo);             \
  }                                                                        \
  type __tsan_atomic##bits##_compare_exchange_val(                         \
      volatile type* a, type c, type v, int mo, int fmo) {                 \
    __tsan_atomic##bits##_compare_exchange_strong(a, &c, v, mo, fmo);      \
    return c;                                                              \
  }

VFT_TSAN_ATOMIC(8, uint8_t)
VFT_TSAN_ATOMIC(16, uint16_t)
VFT_TSAN_ATOMIC(32, uint32_t)
VFT_TSAN_ATOMIC(64, uint64_t)

#undef VFT_TSAN_ATOMIC
#undef VFT_TSAN_RMW

void __tsan_atomic_thread_fence(int mo) {
  // Real fence first (strongest form: correct for every declared order,
  // and a fence is far off any hot path), then the clock-level fence.
  __atomic_thread_fence(__ATOMIC_SEQ_CST);
  vft_atomic_fence(mo);
}

void __tsan_atomic_signal_fence(int mo) {
  // Compiler-only barrier; orders nothing between threads, so the
  // analysis sees no event.
  (void)mo;
  asm volatile("" ::: "memory");
}

// ---------------------------------------------------------------------
// mem*/str* interposition: libc's bulk routines are how real programs
// touch most of their bytes, and compile-time instrumentation cannot see
// inside libc. Each wrapper forwards one range event per side (reads of
// the source, writes of the destination) and then calls the real
// routine; the session resolves the range with the SIMD packed-cell
// prefix kernels. Before the real symbol is resolved (dynamic-linker
// bootstrap: dlsym itself calls mem*), a volatile byte loop stands in -
// volatile so the optimizer cannot recognize the loop and emit a call
// back into the wrapper.
//
// vft_abi_in_runtime() gates every event block: the analysis itself uses
// these libc routines (report rendering, suppression matching), and while
// the nested range event would be dropped by the ABI's reentrancy guard,
// arming the event context here would poison the stack captured by a race
// recorded later in the same enclosing access event.
// ---------------------------------------------------------------------

void* memcpy(void* dst, const void* src, size_t n) {
  if (real_memcpy == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const volatile unsigned char* s =
        static_cast<const unsigned char*>(src);
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
    return dst;
  }
  if (g_mem_ready && n != 0 && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_read(src, n);
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst, n);
  }
  return real_memcpy(dst, src, n);
}

void* memmove(void* dst, const void* src, size_t n) {
  if (real_memmove == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const volatile unsigned char* s =
        static_cast<const unsigned char*>(src);
    if (d < s) {
      for (size_t i = 0; i < n; ++i) d[i] = s[i];
    } else {
      for (size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
    }
    return dst;
  }
  if (g_mem_ready && n != 0 && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_read(src, n);
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst, n);
  }
  return real_memmove(dst, src, n);
}

void* memset(void* dst, int c, size_t n) {
  if (real_memset == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    for (size_t i = 0; i < n; ++i) d[i] = static_cast<unsigned char>(c);
    return dst;
  }
  if (g_mem_ready && n != 0 && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst, n);
  }
  return real_memset(dst, c, n);
}

void bzero(void* dst, size_t n) {
  if (real_bzero == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    for (size_t i = 0; i < n; ++i) d[i] = 0;
    return;
  }
  if (g_mem_ready && n != 0 && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst, n);
  }
  real_bzero(dst, n);
}

size_t strlen(const char* s) {
  if (real_strlen == nullptr) {
    const volatile char* p = s;
    size_t n = 0;
    while (p[n] != '\0') ++n;
    return n;
  }
  // The length is the operation's own output, so the read event (the
  // scanned bytes including the terminator) follows the real call.
  const size_t n = real_strlen(s);
  if (g_mem_ready && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_read(s, n + 1);
  }
  return n;
}

size_t strnlen(const char* s, size_t max) {
  if (real_strnlen == nullptr) {
    const volatile char* p = s;
    size_t n = 0;
    while (n < max && p[n] != '\0') ++n;
    return n;
  }
  const size_t n = real_strnlen(s, max);
  if (g_mem_ready && !vft_abi_in_runtime()) {
    VFT_ARM_EVENT_CTX();
    vft_range_read(s, n < max ? n + 1 : max);
  }
  return n;
}

char* strcpy(char* dst, const char* src) {  // NOLINT
  if (real_strcpy == nullptr) {
    volatile char* d = dst;
    const volatile char* s = src;
    size_t i = 0;
    do {
      d[i] = s[i];
    } while (s[i++] != '\0');
    return dst;
  }
  if (g_mem_ready && !vft_abi_in_runtime()) {
    const size_t n = real_strlen != nullptr ? real_strlen(src) + 1 : 0;
    if (n != 0) {
      VFT_ARM_EVENT_CTX();
      vft_range_read(src, n);
      VFT_ARM_EVENT_CTX();
      vft_range_write(dst, n);
    }
  }
  return real_strcpy(dst, src);
}

char* strncpy(char* dst, const char* src, size_t n) {
  if (real_strncpy == nullptr) {
    volatile char* d = dst;
    const volatile char* s = src;
    size_t i = 0;
    for (; i < n && s[i] != '\0'; ++i) d[i] = s[i];
    for (; i < n; ++i) d[i] = '\0';
    return dst;
  }
  if (g_mem_ready && n != 0 && !vft_abi_in_runtime()) {
    const size_t len =
        real_strnlen != nullptr ? real_strnlen(src, n) : n;
    VFT_ARM_EVENT_CTX();
    vft_range_read(src, len < n ? len + 1 : n);
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst, n);  // strncpy always stores all n bytes
  }
  return real_strncpy(dst, src, n);
}

char* strcat(char* dst, const char* src) {
  if (real_strcat == nullptr) {
    volatile char* d = dst;
    const volatile char* s = src;
    size_t dn = 0;
    while (d[dn] != '\0') ++dn;
    size_t i = 0;
    do {
      d[dn + i] = s[i];
    } while (s[i++] != '\0');
    return dst;
  }
  if (g_mem_ready && real_strlen != nullptr && !vft_abi_in_runtime()) {
    const size_t dn = real_strlen(dst);
    const size_t sn = real_strlen(src) + 1;
    VFT_ARM_EVENT_CTX();
    vft_range_read(dst, dn + 1);
    VFT_ARM_EVENT_CTX();
    vft_range_read(src, sn);
    VFT_ARM_EVENT_CTX();
    vft_range_write(dst + dn, sn);
  }
  return real_strcat(dst, src);
}

// ---------------------------------------------------------------------
// Process lifecycle.
// ---------------------------------------------------------------------

static int report_path_is_json(const char* report) {
  const size_t n = strlen(report);
  return n >= 5 && strcmp(report + n - 5, ".json") == 0;
}

// Crash-path report salvage: on a fatal signal, write the report with
// clean_exit=false before the process dies, so `vft run` can still give
// a verdict for everything detected up to the crash. Best-effort by
// nature (the write is not async-signal-safe; a second fault inside it
// just kills the process the way it was already dying) - the tolerant
// parser on the consumer side finishes the job if the file is cut short.
static struct sigaction g_prev_sig[32];

static void vft_crash_handler(int signo, siginfo_t* info, void* uctx) {
  static volatile sig_atomic_t in_handler = 0;
  if (!in_handler) {
    in_handler = 1;
    const char* report = getenv("VFT_REPORT");
    if (report != nullptr && report[0] != '\0') {
      vft_report_write_ex(report, report_path_is_json(report), /*clean=*/0);
    }
    fprintf(stderr, "vft: target received fatal signal %d; report %s\n",
            signo,
            report != nullptr && report[0] != '\0' ? "salvaged" : "lost");
  }
  // Re-deliver with the original disposition so the exit status (and any
  // chained handler, e.g. a sanitizer's) is exactly what it would have
  // been without us.
  struct sigaction* prev =
      signo > 0 && signo < 32 ? &g_prev_sig[signo] : nullptr;
  if (prev != nullptr && (prev->sa_flags & SA_SIGINFO) != 0 &&
      prev->sa_sigaction != nullptr) {
    prev->sa_sigaction(signo, info, uctx);
    return;
  }
  if (prev != nullptr && (prev->sa_flags & SA_SIGINFO) == 0 &&
      prev->sa_handler != SIG_DFL && prev->sa_handler != SIG_IGN &&
      prev->sa_handler != nullptr) {
    prev->sa_handler(signo);
    return;
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

static void install_crash_handlers(void) {
  static const int kFatal[] = {SIGSEGV, SIGBUS, SIGABRT, SIGILL, SIGFPE};
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = vft_crash_handler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  for (size_t i = 0; i < sizeof(kFatal) / sizeof(kFatal[0]); ++i) {
    const int signo = kFatal[i];
    sigaction(signo, &sa, &g_prev_sig[signo]);
  }
}

__attribute__((constructor)) static void vft_preload_init(void) {
  resolve_all();
  pthread_once(&g_end_key_once, make_end_key);
  install_crash_handlers();
  vft_attach();  // the main thread is target thread 0
  g_mem_ready = 1;  // mem*/str* wrappers may forward range events now
}

__attribute__((destructor)) static void vft_preload_fini(void) {
  vft_detach();
  const size_t races = vft_race_count();
  const size_t suppressed = vft_suppressed_count();
  const char* report = getenv("VFT_REPORT");
  if (report != nullptr && report[0] != '\0') {
    if (vft_report_write(report, report_path_is_json(report)) != 0) {
      fprintf(stderr, "vft: cannot write report to %s\n", report);
    }
  }
  if (suppressed != 0) {
    fprintf(stderr, "vft: %s: %zu race report(s), %zu suppressed\n",
            vft_detector_name(), races, suppressed);
  } else {
    fprintf(stderr, "vft: %s: %zu race report(s)\n", vft_detector_name(),
            races);
  }
  vft_sampling_stats_s sp;
  if (vft_sampling_stats(&sp) != 0) {
    const double total = (double)(sp.sampled + sp.skipped);
    fprintf(stderr,
            "vft: sampling [%s]: rate=%.4f (now %.4f) overhead=%.2f%% "
            "sampled=%llu skipped=%llu\n",
            vft_sampling_describe(),
            total > 0 ? (double)sp.sampled / total : 0.0, sp.rate,
            sp.overhead_pct, (unsigned long long)sp.sampled,
            (unsigned long long)sp.skipped);
  }
}

}  // extern "C"
