// libvft_e2e_trace.so: a per-layer trace of the interposed detector, taken
// from outside the library.
//
//   vft run --preload "libvft_e2e_trace.so libvft_preload.so" -- prog
//
// Preloaded ahead of libvft_preload, this library defines the same symbols
// and forwards each one to the next definition (dlsym RTLD_NEXT), timing
// the crossing. Two layers are visible from here:
//
//   interpose - what the workloads call: __tsan_* accesses, ranges, 32/64-bit
//     atomics and func entry/exit, mutex/condvar wait, create/join, mem*,
//     free (run_e2e.py's self-check names any symbol a workload starts to
//     import that is missing here);
//   abi - the out-of-line entries libvft_preload reaches through its PLT
//     (vft_abi_slow_*, vft_range_*, vft_mutex_*, vft_atomic_*,
//     vft_thread_*, vft_free_hint, vft_report_write*). Everything deeper -
//     session dispatch, sampling gate, packed cell, detector rule, access
//     history, report construction - is inside these spans.
//
// Method:
//   - every call is counted exactly, in per-thread counters;
//   - one call in 64 per thread and entry point is timed with
//     CLOCK_MONOTONIC; while an interpose span is timed, every ABI call
//     nested in it is timed too, so its self time is the span minus its
//     child spans;
//   - the timer floor (median cost of a back-to-back clock pair, taken at
//     start-up) is subtracted from every span;
//   - blocking entries (mutex lock, condvar wait, join) also read the
//     thread CPU clock, splitting the span into busy time (the lower of
//     wall and CPU span) and waited time (the rest);
//   - wrapper calls that arrive while the analysis itself is running
//     (vft_abi_in_runtime(): its own mutexes, memcpy, free) are counted as
//     reentrant and forwarded untimed - their cost is already inside the
//     enclosing ABI span;
//   - __tsan_func_entry/exit are counted only.
// Spans are folded into per-thread memory and written as JSON to
// $VFT_E2E_TRACE at unload and again after the exit-time report write.
//
// Each wrapper calls the next definition from exactly one call site, so
// the return address libvft_preload records for race stacks is the same
// on timed and untimed calls and contexts deduplicate as they do
// untraced (the shim adds one constant frame on top of the target's).
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include <dlfcn.h>
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

namespace {

enum Layer { kInterpose, kAbi };
enum Group { kAccess, kRange, kAtomic, kSync, kThread, kFree, kFunc, kSlow, kReport, kGroups };
constexpr const char* kLayerNames[] = {"interpose", "abi"};
constexpr const char* kGroupNames[] = {"access", "range", "atomic", "sync", "thread",
                                       "free",   "func",  "slow",   "report"};

// X(id, symbol, layer, group, blocking)
#define SHIM_ATOMIC_ENTRIES(X, b)                                                 \
  X(a##b##_load, "__tsan_atomic" #b "_load", kInterpose, kAtomic, 0)              \
  X(a##b##_store, "__tsan_atomic" #b "_store", kInterpose, kAtomic, 0)            \
  X(a##b##_exchange, "__tsan_atomic" #b "_exchange", kInterpose, kAtomic, 0)      \
  X(a##b##_fetch_add, "__tsan_atomic" #b "_fetch_add", kInterpose, kAtomic, 0)    \
  X(a##b##_fetch_sub, "__tsan_atomic" #b "_fetch_sub", kInterpose, kAtomic, 0)    \
  X(a##b##_fetch_and, "__tsan_atomic" #b "_fetch_and", kInterpose, kAtomic, 0)    \
  X(a##b##_fetch_or, "__tsan_atomic" #b "_fetch_or", kInterpose, kAtomic, 0)      \
  X(a##b##_fetch_xor, "__tsan_atomic" #b "_fetch_xor", kInterpose, kAtomic, 0)    \
  X(a##b##_fetch_nand, "__tsan_atomic" #b "_fetch_nand", kInterpose, kAtomic, 0)  \
  X(a##b##_cas_strong, "__tsan_atomic" #b "_compare_exchange_strong", kInterpose, \
    kAtomic, 0)                                                                   \
  X(a##b##_cas_weak, "__tsan_atomic" #b "_compare_exchange_weak", kInterpose,     \
    kAtomic, 0)                                                                   \
  X(a##b##_cas_val, "__tsan_atomic" #b "_compare_exchange_val", kInterpose,       \
    kAtomic, 0)

#define SHIM_ENTRIES(X)                                                        \
  X(read1, "__tsan_read1", kInterpose, kAccess, 0)                             \
  X(read2, "__tsan_read2", kInterpose, kAccess, 0)                             \
  X(read4, "__tsan_read4", kInterpose, kAccess, 0)                             \
  X(read8, "__tsan_read8", kInterpose, kAccess, 0)                             \
  X(write1, "__tsan_write1", kInterpose, kAccess, 0)                           \
  X(write2, "__tsan_write2", kInterpose, kAccess, 0)                           \
  X(write4, "__tsan_write4", kInterpose, kAccess, 0)                           \
  X(write8, "__tsan_write8", kInterpose, kAccess, 0)                           \
  X(read_range, "__tsan_read_range", kInterpose, kRange, 0)                    \
  X(write_range, "__tsan_write_range", kInterpose, kRange, 0)                  \
  X(memcpy_, "memcpy", kInterpose, kRange, 0)                                  \
  X(memmove_, "memmove", kInterpose, kRange, 0)                                \
  X(memset_, "memset", kInterpose, kRange, 0)                                  \
  SHIM_ATOMIC_ENTRIES(X, 32)                                                   \
  SHIM_ATOMIC_ENTRIES(X, 64)                                                   \
  X(thread_fence, "__tsan_atomic_thread_fence", kInterpose, kAtomic, 0)        \
  X(mutex_lock, "pthread_mutex_lock", kInterpose, kSync, 1)                    \
  X(mutex_trylock, "pthread_mutex_trylock", kInterpose, kSync, 0)              \
  X(mutex_unlock, "pthread_mutex_unlock", kInterpose, kSync, 0)                \
  X(cond_wait, "pthread_cond_wait", kInterpose, kSync, 1)                      \
  X(create, "pthread_create", kInterpose, kThread, 0)                          \
  X(join, "pthread_join", kInterpose, kThread, 1)                              \
  X(free_, "free", kInterpose, kFree, 0)                                       \
  X(func_entry, "__tsan_func_entry", kInterpose, kFunc, 0)                     \
  X(func_exit, "__tsan_func_exit", kInterpose, kFunc, 0)                       \
  X(abi_slow_read, "vft_abi_slow_read", kAbi, kSlow, 0)                        \
  X(abi_slow_write, "vft_abi_slow_write", kAbi, kSlow, 0)                      \
  X(abi_range_read, "vft_range_read", kAbi, kRange, 0)                         \
  X(abi_range_write, "vft_range_write", kAbi, kRange, 0)                       \
  X(abi_mutex_lock, "vft_mutex_lock", kAbi, kSync, 0)                          \
  X(abi_mutex_unlock, "vft_mutex_unlock", kAbi, kSync, 0)                      \
  X(abi_atomic_load, "vft_atomic_load", kAbi, kAtomic, 0)                      \
  X(abi_atomic_store, "vft_atomic_store", kAbi, kAtomic, 0)                    \
  X(abi_atomic_rmw_pre, "vft_atomic_rmw_pre", kAbi, kAtomic, 0)                \
  X(abi_atomic_rmw_post, "vft_atomic_rmw_post", kAbi, kAtomic, 0)              \
  X(abi_atomic_fence, "vft_atomic_fence", kAbi, kAtomic, 0)                    \
  X(abi_attach, "vft_attach", kAbi, kThread, 0)                                \
  X(abi_detach, "vft_detach", kAbi, kThread, 0)                                \
  X(abi_thread_create, "vft_thread_create", kAbi, kThread, 0)                  \
  X(abi_thread_begin, "vft_thread_begin", kAbi, kThread, 0)                    \
  X(abi_thread_join, "vft_thread_join", kAbi, kThread, 0)                      \
  X(abi_thread_detach, "vft_thread_detach", kAbi, kThread, 0)                  \
  X(abi_free_hint, "vft_free_hint", kAbi, kFree, 0)                            \
  X(abi_report_write, "vft_report_write", kAbi, kReport, 0)                    \
  X(abi_report_write_ex, "vft_report_write_ex", kAbi, kReport, 0)

enum Entry : int {
#define SHIM_ENUM(id, sym, layer, group, blocking) E_##id,
  SHIM_ENTRIES(SHIM_ENUM)
#undef SHIM_ENUM
  kEntries
};

struct EntryInfo {
  const char* symbol;
  Layer layer;
  Group group;
  bool blocking;
};

constexpr EntryInfo kInfo[kEntries] = {
#define SHIM_INFO(id, sym, layer, group, blocking) {sym, layer, group, blocking != 0},
    SHIM_ENTRIES(SHIM_INFO)
#undef SHIM_INFO
};

// ---------------------------------------------------------------------
// Next definitions. Resolved eagerly at load and lazily on first use: the
// C++ runtime and libvft_preload's own constructor call memcpy, free and
// pthread_mutex_lock before this library's constructor may have run.
// ---------------------------------------------------------------------

void* g_next[kEntries];
int g_resolving = 0;

void resolve_all() {
  __atomic_store_n(&g_resolving, 1, __ATOMIC_RELAXED);
  for (int i = 0; i < kEntries; ++i) {
    if (__atomic_load_n(&g_next[i], __ATOMIC_RELAXED) == nullptr) {
      __atomic_store_n(&g_next[i], dlsym(RTLD_NEXT, kInfo[i].symbol), __ATOMIC_RELAXED);
    }
  }
  __atomic_store_n(&g_resolving, 0, __ATOMIC_RELAXED);
}

template <typename Fn>
Fn next(Entry id) {
  void* p = __atomic_load_n(&g_next[id], __ATOMIC_RELAXED);
  if (__builtin_expect(p == nullptr, 0)) {
    if (!__atomic_load_n(&g_resolving, __ATOMIC_RELAXED)) resolve_all();
    p = __atomic_load_n(&g_next[id], __ATOMIC_RELAXED);
  }
  return reinterpret_cast<Fn>(p);
}

// ---------------------------------------------------------------------
// Clocks.
// ---------------------------------------------------------------------

inline uint64_t read_clock(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t wall_ns() { return read_clock(CLOCK_MONOTONIC); }
inline uint64_t cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }

uint64_t g_floor_ns = 0;      // back-to-back CLOCK_MONOTONIC pair
uint64_t g_cpu_floor_ns = 0;  // back-to-back thread-CPU-clock pair

uint64_t median_pair_cost(uint64_t (*clock)(), int pairs) {
  uint64_t d[1001];
  pairs = std::min(pairs, 1001);
  for (int i = 0; i < pairs; ++i) {
    const uint64_t a = clock();
    d[i] = clock() - a;
  }
  std::nth_element(d, d + pairs / 2, d + pairs);
  return d[pairs / 2];
}

// ---------------------------------------------------------------------
// Per-thread counters. Blocks come from a static pool (no allocation on
// any interposed path) and are only read at dump time, after the
// target's threads are gone.
// ---------------------------------------------------------------------

struct EntryStats {
  uint64_t calls;
  uint64_t timed;
  uint64_t busy_ns;  // inclusive of nested ABI spans, waiting excluded
  uint64_t self_ns;  // busy minus nested ABI spans
  uint64_t wait_ns;  // blocking entries: wall span the thread spent off-CPU
  uint64_t bytes;
  uint64_t timed_bytes;
};

struct ThreadBlock {
  EntryStats e[kEntries];
  uint64_t reentrant[kGroups];
};

constexpr int kMaxThreads = 4096;  // threads per run; pipeline_budget5 starts ~2400
ThreadBlock g_blocks[kMaxThreads];
ThreadBlock g_overflow;  // shared by threads past the pool; flagged in the dump
int g_blocks_used = 0;

struct Tls {
  ThreadBlock* block;
  int interpose_depth;
  int abi_depth;
  bool parent_timed;  // an interpose span on this thread is being timed
  uint64_t child_ns;  // raw ABI spans nested in it
  uint64_t children;
};
__thread Tls tl __attribute__((tls_model("initial-exec")));

inline ThreadBlock* block() {
  if (__builtin_expect(tl.block == nullptr, 0)) {
    const int i = __atomic_fetch_add(&g_blocks_used, 1, __ATOMIC_RELAXED);
    tl.block = i < kMaxThreads ? &g_blocks[i] : &g_overflow;
  }
  return tl.block;
}

inline bool sampled(EntryStats& e) { return (e.calls++ & 63) == 0; }

using InRuntimeFn = int (*)();
InRuntimeFn g_in_runtime = nullptr;

/// Libc and pthread wrappers: true (and counted) when the call comes from
/// inside the analysis rather than from the target.
inline bool reentrant(Group g) {
  if (g_in_runtime == nullptr || g_in_runtime() == 0) return false;
  block()->reentrant[g]++;
  return true;
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

struct Span {
  Entry id;
  bool counted;
  bool timed;
  uint64_t t0;
  uint64_t cpu0;
};

inline Span open_interpose(Entry id) {
  Span s{id, true, false, 0, 0};
  EntryStats& e = block()->e[id];
  const bool outer = tl.interpose_depth++ == 0;
  if (sampled(e) && outer) {
    s.timed = true;
    tl.parent_timed = true;
    tl.child_ns = 0;
    tl.children = 0;
    if (kInfo[id].blocking) s.cpu0 = cpu_ns();
    s.t0 = wall_ns();
  }
  return s;
}

inline void close_interpose(const Span& s, uint64_t bytes) {
  EntryStats& e = tl.block->e[s.id];
  e.bytes += bytes;
  tl.interpose_depth--;
  if (!s.timed) return;
  const uint64_t t1 = wall_ns();
  const uint64_t wall = t1 - s.t0;
  uint64_t busy = wall > g_floor_ns ? wall - g_floor_ns : 0;
  if (kInfo[s.id].blocking) {
    // The thread-CPU clock is a syscall whose cold cost exceeds its
    // calibrated floor, so it only ever lowers the wall figure: an
    // uncontended call keeps its (more precise) wall span.
    const uint64_t cpu = cpu_ns() - s.cpu0;
    const uint64_t cpu_busy = cpu > g_cpu_floor_ns ? cpu - g_cpu_floor_ns : 0;
    if (cpu_busy < busy) {
      e.wait_ns += busy - cpu_busy;
      busy = cpu_busy;
    }
  }
  const uint64_t nested = tl.child_ns + tl.children * g_floor_ns;
  e.timed++;
  e.busy_ns += busy;
  e.self_ns += busy > nested ? busy - nested : 0;
  e.timed_bytes += bytes;
  tl.parent_timed = false;
}

inline Span open_abi(Entry id) {
  Span s{id, false, false, 0, 0};
  // An ABI call made while another is running on this thread is the
  // analysis re-entering itself (a dropped nested event): not counted.
  if (tl.abi_depth++ != 0) return s;
  s.counted = true;
  EntryStats& e = block()->e[id];
  if (sampled(e) || tl.parent_timed || kInfo[id].group == kReport) {
    s.timed = true;
    s.t0 = wall_ns();
  }
  return s;
}

inline void close_abi(const Span& s, uint64_t bytes) {
  tl.abi_depth--;
  if (!s.counted) return;
  EntryStats& e = tl.block->e[s.id];
  e.bytes += bytes;
  if (!s.timed) return;
  const uint64_t wall = wall_ns() - s.t0;
  const uint64_t busy = wall > g_floor_ns ? wall - g_floor_ns : 0;
  e.timed++;
  e.busy_ns += busy;
  e.self_ns += busy;
  e.timed_bytes += bytes;
  if (tl.parent_timed) {
    tl.child_ns += wall;
    tl.children++;
  }
}

// ---------------------------------------------------------------------
// Dump.
// ---------------------------------------------------------------------

void dump() {
  const char* path = getenv("VFT_E2E_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  static char buf[1 << 17];
  size_t n = 0;
  auto put = [&](const char* fmt, auto... args) {
    if (n < sizeof(buf)) {
      const int w = snprintf(buf + n, sizeof(buf) - n, fmt, args...);
      if (w > 0) n += static_cast<size_t>(w);
    }
  };
  const int used = __atomic_load_n(&g_blocks_used, __ATOMIC_ACQUIRE);
  const int threads = std::min(used, kMaxThreads);
  put("{\"schema\": \"vft-e2e-trace-v1\", \"floor_ns\": %llu, \"cpu_floor_ns\": %llu, "
      "\"threads\": %d, \"overflow_threads\": %d, \"entries\": [",
      static_cast<unsigned long long>(g_floor_ns), static_cast<unsigned long long>(g_cpu_floor_ns),
      threads, used - threads);
  bool first = true;
  for (int id = 0; id < kEntries; ++id) {
    EntryStats sum{};
    for (int t = 0; t <= threads; ++t) {
      const EntryStats& e = t < threads ? g_blocks[t].e[id] : g_overflow.e[id];
      sum.calls += e.calls;
      sum.timed += e.timed;
      sum.busy_ns += e.busy_ns;
      sum.self_ns += e.self_ns;
      sum.wait_ns += e.wait_ns;
      sum.bytes += e.bytes;
      sum.timed_bytes += e.timed_bytes;
    }
    put("%s\n  {\"symbol\": \"%s\", \"layer\": \"%s\", \"group\": \"%s\", \"calls\": %llu, "
        "\"timed\": %llu, \"busy_ns\": %llu, \"self_ns\": %llu, \"wait_ns\": %llu, "
        "\"bytes\": %llu, \"timed_bytes\": %llu}",
        first ? "" : ",", kInfo[id].symbol, kLayerNames[kInfo[id].layer],
        kGroupNames[kInfo[id].group], static_cast<unsigned long long>(sum.calls),
        static_cast<unsigned long long>(sum.timed), static_cast<unsigned long long>(sum.busy_ns),
        static_cast<unsigned long long>(sum.self_ns), static_cast<unsigned long long>(sum.wait_ns),
        static_cast<unsigned long long>(sum.bytes),
        static_cast<unsigned long long>(sum.timed_bytes));
    first = false;
  }
  put("], \"reentrant\": {");
  for (int g = 0; g < kGroups; ++g) {
    uint64_t r = g_overflow.reentrant[g];
    for (int t = 0; t < threads; ++t) r += g_blocks[t].reentrant[g];
    put("%s\"%s\": %llu", g == 0 ? "" : ", ", kGroupNames[g], static_cast<unsigned long long>(r));
  }
  put("}}\n");
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  for (size_t off = 0; off < n;) {
    const ssize_t w = write(fd, buf + off, n - off);
    if (w <= 0) break;
    off += static_cast<size_t>(w);
  }
  close(fd);
}

__attribute__((constructor)) void shim_init() {
  resolve_all();
  g_in_runtime = reinterpret_cast<InRuntimeFn>(dlsym(RTLD_DEFAULT, "vft_abi_in_runtime"));
  g_floor_ns = median_pair_cost(wall_ns, 1001);
  g_cpu_floor_ns = median_pair_cost(cpu_ns, 201);
}

// This library unloads before libvft_preload, whose destructor writes the
// report; the dump after that write (see vft_report_write below) then
// replaces this one. Dumping here too keeps a trace when the write never
// reaches this library - which is exactly what the self-check looks for.
__attribute__((destructor)) void shim_fini() { dump(); }

}  // namespace

// ---------------------------------------------------------------------
// Wrappers. SHIM_CALL runs `call` (a single call of the next definition)
// inside the span of the given kind.
// ---------------------------------------------------------------------

#define SHIM_CALL(kind, id, bytes, call)        \
  do {                                          \
    const Span shim_span_ = open_##kind(id);    \
    call;                                       \
    close_##kind(shim_span_, (bytes));          \
  } while (0)

extern "C" {

// --- interpose: plain accesses ---------------------------------------

#define SHIM_ACCESS(id, name, T)                                  \
  void name(T a) { SHIM_CALL(interpose, E_##id, 0, next<void (*)(T)>(E_##id)(a)); }
SHIM_ACCESS(read1, __tsan_read1, void*)
SHIM_ACCESS(read2, __tsan_read2, void*)
SHIM_ACCESS(read4, __tsan_read4, void*)
SHIM_ACCESS(read8, __tsan_read8, void*)
SHIM_ACCESS(write1, __tsan_write1, void*)
SHIM_ACCESS(write2, __tsan_write2, void*)
SHIM_ACCESS(write4, __tsan_write4, void*)
SHIM_ACCESS(write8, __tsan_write8, void*)
#undef SHIM_ACCESS

void __tsan_read_range(void* a, unsigned long size) {
  SHIM_CALL(interpose, E_read_range, size,
            next<void (*)(void*, unsigned long)>(E_read_range)(a, size));
}
void __tsan_write_range(void* a, unsigned long size) {
  SHIM_CALL(interpose, E_write_range, size,
            next<void (*)(void*, unsigned long)>(E_write_range)(a, size));
}

// --- interpose: func entry/exit (counted only) -----------------------

void __tsan_func_entry(void* pc) {
  block()->e[E_func_entry].calls++;
  next<void (*)(void*)>(E_func_entry)(pc);
}
void __tsan_func_exit(void) {
  block()->e[E_func_exit].calls++;
  next<void (*)()>(E_func_exit)();
}

// --- interpose: atomics ----------------------------------------------

#define SHIM_ATOMIC_RMW(b, T, op, id)                                            \
  T __tsan_atomic##b##_##op(volatile T* a, T v, int mo) {                        \
    T r;                                                                         \
    SHIM_CALL(interpose, E_a##b##_##id, 0,                                       \
              r = next<T (*)(volatile T*, T, int)>(E_a##b##_##id)(a, v, mo));    \
    return r;                                                                    \
  }

#define SHIM_ATOMIC(b, T)                                                          \
  T __tsan_atomic##b##_load(const volatile T* a, int mo) {                         \
    T r;                                                                           \
    SHIM_CALL(interpose, E_a##b##_load, 0,                                         \
              r = next<T (*)(const volatile T*, int)>(E_a##b##_load)(a, mo));      \
    return r;                                                                      \
  }                                                                                \
  void __tsan_atomic##b##_store(volatile T* a, T v, int mo) {                      \
    SHIM_CALL(interpose, E_a##b##_store, 0,                                        \
              next<void (*)(volatile T*, T, int)>(E_a##b##_store)(a, v, mo));      \
  }                                                                                \
  SHIM_ATOMIC_RMW(b, T, exchange, exchange)                                        \
  SHIM_ATOMIC_RMW(b, T, fetch_add, fetch_add)                                      \
  SHIM_ATOMIC_RMW(b, T, fetch_sub, fetch_sub)                                      \
  SHIM_ATOMIC_RMW(b, T, fetch_and, fetch_and)                                      \
  SHIM_ATOMIC_RMW(b, T, fetch_or, fetch_or)                                        \
  SHIM_ATOMIC_RMW(b, T, fetch_xor, fetch_xor)                                      \
  SHIM_ATOMIC_RMW(b, T, fetch_nand, fetch_nand)                                    \
  int __tsan_atomic##b##_compare_exchange_strong(volatile T* a, T* c, T v, int mo, \
                                                 int fmo) {                        \
    int r;                                                                         \
    SHIM_CALL(interpose, E_a##b##_cas_strong, 0,                                   \
              r = next<int (*)(volatile T*, T*, T, int, int)>(E_a##b##_cas_strong)( \
                  a, c, v, mo, fmo));                                              \
    return r;                                                                      \
  }                                                                                \
  int __tsan_atomic##b##_compare_exchange_weak(volatile T* a, T* c, T v, int mo,   \
                                               int fmo) {                          \
    int r;                                                                         \
    SHIM_CALL(interpose, E_a##b##_cas_weak, 0,                                     \
              r = next<int (*)(volatile T*, T*, T, int, int)>(E_a##b##_cas_weak)(   \
                  a, c, v, mo, fmo));                                              \
    return r;                                                                      \
  }                                                                                \
  T __tsan_atomic##b##_compare_exchange_val(volatile T* a, T c, T v, int mo,       \
                                            int fmo) {                             \
    T r;                                                                           \
    SHIM_CALL(interpose, E_a##b##_cas_val, 0,                                      \
              r = next<T (*)(volatile T*, T, T, int, int)>(E_a##b##_cas_val)(       \
                  a, c, v, mo, fmo));                                              \
    return r;                                                                      \
  }

SHIM_ATOMIC(32, uint32_t)
SHIM_ATOMIC(64, uint64_t)
#undef SHIM_ATOMIC
#undef SHIM_ATOMIC_RMW

void __tsan_atomic_thread_fence(int mo) {
  SHIM_CALL(interpose, E_thread_fence, 0, next<void (*)(int)>(E_thread_fence)(mo));
}

// --- interpose: pthread surface --------------------------------------

#define SHIM_PTHREAD(id, group, name, params, args, Fn)           \
  int name params {                                               \
    if (reentrant(group)) return next<Fn>(E_##id) args;           \
    int r;                                                        \
    SHIM_CALL(interpose, E_##id, 0, r = next<Fn>(E_##id) args);   \
    return r;                                                     \
  }

using MutexFn = int (*)(pthread_mutex_t*);
using CondWaitFn = int (*)(pthread_cond_t*, pthread_mutex_t*);
using CreateFn = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*), void*);
using JoinFn = int (*)(pthread_t, void**);

SHIM_PTHREAD(mutex_lock, kSync, pthread_mutex_lock, (pthread_mutex_t * m), (m), MutexFn)
SHIM_PTHREAD(mutex_trylock, kSync, pthread_mutex_trylock, (pthread_mutex_t * m), (m), MutexFn)
SHIM_PTHREAD(mutex_unlock, kSync, pthread_mutex_unlock, (pthread_mutex_t * m), (m), MutexFn)
SHIM_PTHREAD(cond_wait, kSync, pthread_cond_wait, (pthread_cond_t * c, pthread_mutex_t* m),
             (c, m), CondWaitFn)
SHIM_PTHREAD(create, kThread, pthread_create,
             (pthread_t * t, const pthread_attr_t* attr, void* (*fn)(void*), void* arg),
             (t, attr, fn, arg), CreateFn)
SHIM_PTHREAD(join, kThread, pthread_join, (pthread_t t, void** ret), (t, ret), JoinFn)
#undef SHIM_PTHREAD

// --- interpose: memory lifetime --------------------------------------

void free(void* p) {
  using Fn = void (*)(void*);
  Fn real = next<Fn>(E_free_);
  if (real == nullptr) return;  // dlsym bootstrap: leak rather than recurse
  if (p == nullptr || reentrant(kFree)) {
    real(p);
    return;
  }
  SHIM_CALL(interpose, E_free_, 0, real(p));
}

// --- interpose: mem* -------------------------------------------------
// Before the next definition is known (a call from inside dlsym while
// resolving), a volatile byte loop stands in.

void* memcpy(void* dst, const void* src, size_t n) {
  using Fn = void* (*)(void*, const void*, size_t);
  Fn real = next<Fn>(E_memcpy_);
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const volatile unsigned char* s = static_cast<const unsigned char*>(src);
    for (size_t i = 0; i < n; ++i) d[i] = s[i];
    return dst;
  }
  if (reentrant(kRange)) return real(dst, src, n);
  void* r;
  SHIM_CALL(interpose, E_memcpy_, n, r = real(dst, src, n));
  return r;
}

void* memmove(void* dst, const void* src, size_t n) {
  using Fn = void* (*)(void*, const void*, size_t);
  Fn real = next<Fn>(E_memmove_);
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    const volatile unsigned char* s = static_cast<const unsigned char*>(src);
    if (d < s) {
      for (size_t i = 0; i < n; ++i) d[i] = s[i];
    } else {
      for (size_t i = n; i > 0; --i) d[i - 1] = s[i - 1];
    }
    return dst;
  }
  if (reentrant(kRange)) return real(dst, src, n);
  void* r;
  SHIM_CALL(interpose, E_memmove_, n, r = real(dst, src, n));
  return r;
}

void* memset(void* dst, int c, size_t n) {
  using Fn = void* (*)(void*, int, size_t);
  Fn real = next<Fn>(E_memset_);
  if (real == nullptr) {
    volatile unsigned char* d = static_cast<unsigned char*>(dst);
    for (size_t i = 0; i < n; ++i) d[i] = static_cast<unsigned char>(c);
    return dst;
  }
  if (reentrant(kRange)) return real(dst, c, n);
  void* r;
  SHIM_CALL(interpose, E_memset_, n, r = real(dst, c, n));
  return r;
}

// --- abi --------------------------------------------------------------

#define SHIM_ABI_VOID(id, name, params, args, bytes, Fn) \
  void name params { SHIM_CALL(abi, E_##id, bytes, next<Fn>(E_##id) args); }

using AccessFn = void (*)(const void*, size_t);
using AtomicFn = void (*)(const void*, int);
using AddrFn = void (*)(const void*);
using TokenFn = void (*)(uint64_t);

SHIM_ABI_VOID(abi_slow_read, vft_abi_slow_read, (const void* a, size_t n), (a, n), 0, AccessFn)
SHIM_ABI_VOID(abi_slow_write, vft_abi_slow_write, (const void* a, size_t n), (a, n), 0, AccessFn)
SHIM_ABI_VOID(abi_range_read, vft_range_read, (const void* a, size_t n), (a, n), n, AccessFn)
SHIM_ABI_VOID(abi_range_write, vft_range_write, (const void* a, size_t n), (a, n), n, AccessFn)
SHIM_ABI_VOID(abi_free_hint, vft_free_hint, (const void* a, size_t n), (a, n), n, AccessFn)
SHIM_ABI_VOID(abi_mutex_lock, vft_mutex_lock, (const void* m), (m), 0, AddrFn)
SHIM_ABI_VOID(abi_mutex_unlock, vft_mutex_unlock, (const void* m), (m), 0, AddrFn)
SHIM_ABI_VOID(abi_atomic_load, vft_atomic_load, (const void* a, int mo), (a, mo), 0, AtomicFn)
SHIM_ABI_VOID(abi_atomic_store, vft_atomic_store, (const void* a, int mo), (a, mo), 0, AtomicFn)
SHIM_ABI_VOID(abi_atomic_rmw_pre, vft_atomic_rmw_pre, (const void* a, int mo), (a, mo), 0,
              AtomicFn)
SHIM_ABI_VOID(abi_atomic_rmw_post, vft_atomic_rmw_post, (const void* a, int mo), (a, mo), 0,
              AtomicFn)
SHIM_ABI_VOID(abi_atomic_fence, vft_atomic_fence, (int mo), (mo), 0, void (*)(int))
SHIM_ABI_VOID(abi_detach, vft_detach, (void), (), 0, void (*)())
SHIM_ABI_VOID(abi_thread_begin, vft_thread_begin, (uint64_t t), (t), 0, TokenFn)
SHIM_ABI_VOID(abi_thread_join, vft_thread_join, (uint64_t t), (t), 0, TokenFn)
SHIM_ABI_VOID(abi_thread_detach, vft_thread_detach, (uint64_t t), (t), 0, TokenFn)
#undef SHIM_ABI_VOID

int vft_attach(void) {
  int r;
  SHIM_CALL(abi, E_abi_attach, 0, r = next<int (*)()>(E_abi_attach)());
  return r;
}

uint64_t vft_thread_create(void) {
  uint64_t r;
  SHIM_CALL(abi, E_abi_thread_create, 0, r = next<uint64_t (*)()>(E_abi_thread_create)());
  return r;
}

// The exit-time report write is the last analysis work of a run: the
// trace is written right after it.
int vft_report_write(const char* path, int json) {
  int r;
  SHIM_CALL(abi, E_abi_report_write, 0,
            r = next<int (*)(const char*, int)>(E_abi_report_write)(path, json));
  dump();
  return r;
}

int vft_report_write_ex(const char* path, int json, int clean) {
  int r;
  SHIM_CALL(abi, E_abi_report_write_ex, 0,
            r = next<int (*)(const char*, int, int)>(E_abi_report_write_ex)(path, json, clean));
  dump();
  return r;
}

}  // extern "C"
