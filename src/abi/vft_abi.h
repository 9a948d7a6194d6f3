/* The narrow C ABI over the analysis session: every entry point an
 * interposition layer (LD_PRELOAD, a compiler pass, a DBI tool, or a
 * foreign-language binding) needs, and nothing else.
 *
 * The whole C++ runtime stack - detector, shadow memory (data, locks,
 * atomics), thread registry - sits behind these ~20 plain functions; the
 * detector is fixed per process but selectable at launch (VFT_DETECTOR
 * environment variable: v1 v1.5 v2 ft-mutex ft-cas djit; default v2).
 *
 * Threading model: every entry point may be called from any OS thread.
 * The calling thread is attached to the analysis implicitly on its first
 * event (vft_attach exists to make that explicit and observable). When
 * the registry's tid space is exhausted (more than Epoch::kMaxTid+1
 * concurrently-live threads) further threads degrade to *unmonitored* -
 * their events become no-ops after a one-time warning - rather than
 * aborting the target.
 *
 * Ordering discipline (ALGORITHM.md Section 4): the caller invokes
 *   - vft_mutex_lock   *after* the native acquire succeeded,
 *   - vft_thread_join  *after* the native join returned success,
 *   - everything else  *before* the corresponding target operation.
 *
 * Reentrancy: entry points are self-guarded. If the analysis itself
 * triggers a nested event in the same thread (e.g. a free() performed by
 * the runtime while a free-hint is being processed), the nested call is
 * dropped instead of recursing.
 */
#ifndef VFT_ABI_VFT_ABI_H_
#define VFT_ABI_VFT_ABI_H_

#include <stddef.h>
#include <stdint.h>

#include "vft/event_ctx.h"

#ifdef __cplusplus
extern "C" {
#endif

/* --- thread lifecycle ------------------------------------------------- */

/* Attach the calling OS thread to the analysis as a fresh target thread
 * (implicitly detached: its slot retires at vft_detach). Idempotent; a
 * thread bound via vft_thread_begin keeps that binding. Returns 1 when
 * the thread is monitored after the call, 0 when it runs unmonitored
 * (registry exhausted). */
int vft_attach(void);

/* End-of-thread event for the calling thread. Retires the thread's tid
 * slot if no joiner will (detached or implicitly attached threads);
 * always safe to call, also for unmonitored or never-attached threads. */
void vft_detach(void);

/* Parent side of thread creation, *before* the native create: runs the
 * fork handler and reserves the child's ThreadState. Returns an opaque
 * nonzero token identifying the child, or 0 when the child cannot be
 * monitored (exhausted registry / unmonitored parent); 0 is safe to pass
 * to the other vft_thread_* calls (they no-op). */
uint64_t vft_thread_create(void);

/* Child side: bind the calling OS thread to the token's ThreadState.
 * Must be the child's first analysis-visible action. */
void vft_thread_begin(uint64_t token);

/* Joiner side, *after* the native join returned success: runs the join
 * handler and retires the child's slot (unless already retired by a
 * detach). Consumes the token. */
void vft_thread_join(uint64_t token);

/* pthread_detach equivalent: no one will join this child; its slot
 * retires at its vft_detach (immediately, if it already ended). */
void vft_thread_detach(uint64_t token);

/* --- memory accesses -------------------------------------------------- */

/* Pre-access events, sized like the TSan instrumentation surface. An
 * access contained in one 8-byte shadow word is a single-word event; a
 * straddling access degrades to the range path. */
void vft_read1(const void* addr);
void vft_read2(const void* addr);
void vft_read4(const void* addr);
void vft_read8(const void* addr);
void vft_write1(const void* addr);
void vft_write2(const void* addr);
void vft_write4(const void* addr);
void vft_write8(const void* addr);

/* memcpy-style sized accesses: one event per overlapped shadow word
 * (same-epoch runs are resolved in bulk by a SIMD prefix scan). */
void vft_range_read(const void* addr, size_t size);
void vft_range_write(const void* addr, size_t size);

/* Out-of-line halves of the header-inlined fast path
 * (src/abi/vft_abi_inline.h): an interposition layer that compiles the
 * inline try-functions calls these only on an inline miss. vft_readN /
 * vft_writeN are exactly `if (!try) slow`; callers without the header
 * just use those. */
void vft_abi_slow_read(const void* addr, size_t size);
void vft_abi_slow_write(const void* addr, size_t size);

/* Nonzero while the calling thread is inside an ABI entry point (the
 * reentrancy guard is held). An interposition layer that also wraps libc
 * routines the analysis itself uses (memcpy, strlen, ...) must consult
 * this before arming the event context for such a wrapper: the nested
 * range event would be dropped by the guard anyway, but the arm would
 * overwrite the context mid-event and a second race recorded from the
 * same enclosing access would capture an analysis-internal stack. */
int vft_abi_in_runtime(void);

/* --- atomics (__tsan_atomic* sync surface) ----------------------------- */

/* Synchronization halves of the target's C11/C++11 atomic operations,
 * keyed by address like native locks. `mo` is the operation's declared
 * memory order in the TSan ABI encoding (identical to the compiler's
 * __ATOMIC_* values: 0 relaxed, 1 consume, 2 acquire, 3 release,
 * 4 acq_rel, 5 seq_cst); out-of-range values are treated as seq_cst.
 *
 * Ordering discipline, extending Section 4: the caller invokes
 *   - vft_atomic_store / vft_atomic_rmw_pre  *before* the real operation
 *     (the publication must be in the sync clock before the stored value
 *     can be observed),
 *   - vft_atomic_load / vft_atomic_rmw_post  *after* it (the join happens
 *     once the value was actually read).
 * A compare_exchange calls rmw_pre with the success order, performs the
 * real CAS, then calls rmw_post with the success order (CAS won) or the
 * failure order (CAS lost - a failed CAS is a load).
 *
 * Semantics per order follow VFT_ATOMICS mode (default "precise"):
 * acquire-class loads join the location's release clock, release-class
 * stores publish the thread clock into it, relaxed accesses contribute no
 * edge. VFT_ATOMICS=sc upgrades every order to seq_cst (the conservative
 * TSan-on-x86 view); any other value means "precise". */
void vft_atomic_load(const void* addr, int mo);
void vft_atomic_store(const void* addr, int mo);
void vft_atomic_rmw_pre(const void* addr, int mo);
void vft_atomic_rmw_post(const void* addr, int mo);

/* __tsan_atomic_thread_fence: per-thread fence event (no address). */
void vft_atomic_fence(int mo);

/* --- native locks ------------------------------------------------------ */

/* Acquire/release events for a native lock identified by its address
 * (e.g. a pthread_mutex_t*). States are created on first use beside the
 * shadow of the lock's memory; vft_free_hint resets states whose
 * addresses die, so recycled addresses start from scratch. */
void vft_mutex_lock(const void* m);
void vft_mutex_unlock(const void* m);

/* --- memory lifetime --------------------------------------------------- */

/* The target freed [addr, addr+size) (free, munmap, ...): clear the
 * covered shadow words and reset dead lock and atomic states so a
 * recycled address cannot inherit stale analysis state. */
void vft_free_hint(const void* addr, size_t size);

/* --- event context (stack capture) ------------------------------------- */

/* Per-thread capture boundary for race call stacks (vft/event_ctx.h: the
 * `vft_tl_event_ctx` thread-local). An interposition layer stores the
 * instrumented call site's return address (`pc`) and its own frame
 * pointer (`fp`) there immediately before forwarding an access event; if
 * that event detects a race, the runtime walks the frame-pointer chain
 * upward from `fp` to reconstruct the *target's* stack (capped by
 * vft/stack.h's kMaxStackDepth, 16). Cost on the non-racing path: the
 * two stores. Left unset, races are recorded without stacks and
 * deduplicate by variable instead. Cleared by the runtime at each
 * *slow-path* exit (inline fast-path hits cannot race, so they neither
 * read nor clear the context); an interposition layer should arm it only
 * when it is about to take the slow path, so a stale boundary can never
 * describe the wrong access. */

/* --- reporting --------------------------------------------------------- */

/* Number of *visible* race occurrences collected so far (occurrences
 * hidden by suppression rules are counted separately; see
 * vft_suppressed_count and the report summary). */
size_t vft_race_count(void);

/* Occurrences hidden from the report by suppression-rule matches.
 * racy run := vft_race_count() + vft_suppressed_count() > 0. */
size_t vft_suppressed_count(void);

/* Load a valgrind-style suppression file (see docs: `vft:<kind-glob>`,
 * `fun:`/`obj:` frame globs, `...` ellipsis) into the session's engine.
 * Files named by the VFT_SUPPRESSIONS environment variable (colon-
 * separated list) are loaded automatically at session creation; this
 * entry point adds more at runtime. Rules apply to contexts created
 * after the load. Returns 0 on success, -1 on a missing/malformed file
 * (a diagnostic goes to stderr; previously loaded rules are kept). */
int vft_suppressions_load(const char* path);

/* Write the end-of-run race report to `path` ("-" or NULL: stderr).
 * `json` nonzero selects the machine-readable "vft-report-v2" JSON
 * schema - deduplicated error contexts with call stacks (module+offset
 * frames for offline symbolization via `vft report symbolize`), per-
 * context occurrence counts, and suppression statistics; `vft report
 * merge` fuses such files across a fleet of runs. `json` zero writes the
 * flat pre-v2 text form (compatibility mode).
 * Returns 0 on success, -1 when the file cannot be written. */
int vft_report_write(const char* path, int json);

/* vft_report_write with an explicit exit disposition: `clean` zero marks
 * the report as written from a crash/signal path ("clean_exit": false),
 * letting offline consumers distinguish a complete run from a salvaged
 * one. vft_report_write(path, json) == vft_report_write_ex(path, json, 1). */
int vft_report_write_ex(const char* path, int json, int clean);

/* The active detector's name (e.g. "VerifiedFT-v2"). */
const char* vft_detector_name(void);

/* --- sampling (always-on production mode) ------------------------------ */

/* The effective sampling configuration as a human-readable line ("off"
 * when sampling is disabled; otherwise e.g. "budget=5% rate0=1 seed=1").
 * Configuration comes from VFT_SAMPLING / VFT_BUDGET at session creation;
 * see vft/sampling.h for the grammar. The returned storage is valid until
 * the next call from any thread. */
const char* vft_sampling_describe(void);

/* Lifetime counters of the active sampling gate. The integer fields are
 * monotone, and sampled + skipped counts every access the gate saw;
 * rate/overhead_pct are the controller's current state. */
typedef struct vft_sampling_stats_s {
  uint64_t sampled;     /* accesses admitted to the analysis */
  uint64_t skipped;     /* accesses gated out */
  uint64_t overhead_ns; /* extrapolated detector self-time */
  uint64_t busy_ns;     /* process CPU time since gate creation */
  uint64_t adjustments; /* controller windows applied */
  double rate;          /* current global sampling rate */
  double overhead_pct;  /* overhead_ns / busy_ns, percent */
} vft_sampling_stats_s;

/* Snapshot the active gate's counters into *out. Returns 1 when sampling
 * is enabled (out filled), 0 when disabled (out zeroed). */
int vft_sampling_stats(vft_sampling_stats_s* out);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* VFT_ABI_VFT_ABI_H_ */
