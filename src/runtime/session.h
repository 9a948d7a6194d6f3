// The process-global analysis session: the single entry point the C ABI
// (src/abi/vft_abi.h) and the LD_PRELOAD interposer (src/interpose/)
// route through, and the backing store of the ambient annotation macros.
//
// Layering (the RoadRunner substitution, one level lower than ambient.h):
//
//   target binary ──pthread/tsan events──> interposer ──C ABI──> Session
//                                                                  │
//                                  SessionBackend (accesses, atomics,
//                                       locks, lifecycle, free hints)
//                                                                  │
//                            SessionImpl<D>: Runtime<D> + PackedShadowSpace
//                                            (data, locks, atomics)
//                                          + lifecycle
//
// The detector D is fixed for the whole process but selectable at launch
// (VFT_DETECTOR environment variable, or Session::configure before first
// use): the ABI entry points are plain C functions, so the detector
// dispatch happens once per event through one indirect call instead of
// per call-site templates. Every event kind takes the same route, one
// virtual call on SessionBackend; SessionImpl is `final`, so the override
// behind it is the template-inlined handler. bench_hotpath's
// `abi_dispatch` and `atomic_dispatch` sections track what that route
// costs.
//
// Sampling is decided in one place, SessionImpl::access: the Session owns
// the sampling gate (vft/sampling.h) beside the backend it gates, builds
// it before the backend and destroys it after, and every access of any
// size draws once there. Sync events are never gated.
//
// Implicit thread lifecycle: any thread is attached on its first event
// (OS-thread identity lives in Registry's thread_local binding). Threads
// created through the interposer get the explicit §4 protocol instead -
// fork handler in the parent *before* the native create, join handler in
// the joiner *after* the native join - via create/begin/join/detach
// tokens. A thread that exits unjoined, or detached, retires its tid slot
// exactly once (see ThreadRecord below); registry exhaustion degrades to
// an unmonitored thread with a one-time warning instead of aborting the
// target.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/tool.h"
#include "vft/atomics.h"
#include "vft/detector.h"
#include "vft/fastpath_ctx.h"
#include "vft/report_io.h"
#include "vft/sampling.h"

namespace vft::rt::ambient {

/// The detector-erased session surface, the one route of every event.
/// One virtual hop per event; the handlers behind it are the same
/// template-inlined ones the wrappers use.
class SessionBackend {
 public:
  virtual ~SessionBackend() = default;

  virtual const char* detector_name() const = 0;

  // --- memory accesses of any size - a word, a straddle, or a
  // memcpy-style range - one entry per direction.
  virtual void read(const void* addr, std::size_t size) = 0;
  virtual void write(const void* addr, std::size_t size) = 0;

  // --- __tsan_atomic* sync events, keyed by address like locks. `mo` is
  // the TSan ABI memory order (== __ATOMIC_*); address identity is the
  // sync-state key, so no size is needed.
  virtual void atomic_load(const void* a, int mo) = 0;
  virtual void atomic_store(const void* a, int mo) = 0;
  virtual void atomic_rmw_pre(const void* a, int mo) = 0;
  virtual void atomic_rmw_post(const void* a, int mo) = 0;
  virtual void atomic_fence(int mo) = 0;

  // --- native locks, keyed by address (pthread_mutex_t*). Per §4 the
  // caller invokes mutex_lock *after* the native acquire succeeded and
  // mutex_unlock *before* the native release.
  virtual void mutex_lock(const void* m) = 0;
  virtual void mutex_unlock(const void* m) = 0;

  // --- thread lifecycle. attach() binds the calling OS thread to a fresh
  // (implicitly detached) target thread; detach() is its end-of-thread
  // event. The token protocol maps pthread_create/join/detach 1:1.
  virtual bool attach() = 0;
  virtual void detach() = 0;
  virtual std::uint64_t thread_create() = 0;
  virtual void thread_begin(std::uint64_t token) = 0;
  virtual void thread_join(std::uint64_t token) = 0;
  virtual void thread_detach(std::uint64_t token) = 0;

  /// The target freed [addr, addr+size): clear shadow words and reset
  /// dead lock and atomic states so recycled addresses start from bottom.
  virtual void free_hint(const void* addr, std::size_t size) = 0;

  // --- introspection for end-of-run reports.
  virtual std::size_t threads_seen() const = 0;
  virtual std::size_t locks_seen() const = 0;
  virtual std::size_t shadow_words() const = 0;
};

/// Per-OS-thread session state, tagged with the backend generation so a
/// Session::reset() (tests) can never resurrect a stale record.
struct SessionTls {
  void* record = nullptr;        ///< ThreadRecord* of the owning backend
  std::uint64_t generation = 0;  ///< owning backend's generation_
  bool unmonitored = false;      ///< registry exhausted: events are no-ops
};
inline thread_local SessionTls tl_session{};

template <Detector D>
class SessionImpl final : public SessionBackend {
  static_assert(SpillableVarState<typename D::VarState>,
                "the session shadows raw addresses with packed cells only");

 public:
  /// `gate` (nullptr: sampling off) is owned by the Session and outlives
  /// this backend.
  SessionImpl(RaceCollector* races, RuleStats* stats, sampling::Gate* gate)
      : rt_(D(races, stats)), packed_(rt_.packed_space()), gate_(gate) {
    // Header-inlined fast-path descriptor arming: ungated runs only. Under
    // sampling an inline hit would bypass the gate's countdown and
    // controller probes (starving the overhead budget).
    fastpath_arm_ =
        gate_ == nullptr && stats != nullptr && fastpath_env_enabled();
  }

  /// The typed runtime, for same-detector callers (ambient wrappers,
  /// benches) that want the inlined path next to the erased one.
  Runtime<D>& runtime() { return rt_; }

  const char* detector_name() const override { return D::kName; }

  void read(const void* addr, std::size_t size) override {
    access</*IsWrite=*/false>(addr, size);
  }
  void write(const void* addr, std::size_t size) override {
    access</*IsWrite=*/true>(addr, size);
  }

  /// The one access entry, behind read() and write(): every ABI access of
  /// any size runs against the packed-cell space's access(). The packed
  /// fast path is the scalar flank of the header-inlined one, so the inline
  /// path's cached cell pointers stay the authoritative shadow and a
  /// slow-path access leaves exactly the {R, W} the next inline hit tests
  /// against.
  ///
  /// This is the one place sampling is decided. With no gate every access
  /// is sampled. Under a gate, one draw covers the whole access (ranges
  /// are one program event; per-word draws would just multiply the rate by
  /// the range length). The controller probe opens inside should_sample,
  /// before the gate's own slow path, so the controller charges gate
  /// bookkeeping plus the shadow access, the true marginal cost of the
  /// rate. A sampled-out access still updates its packed cell but costs
  /// one cell fast path at most.
  ///
  /// It is also where the header-inlined descriptor is kept: its pending
  /// hit tallies are flushed on entry and it is re-armed after.
  template <bool IsWrite>
  void access(const void* addr, std::size_t size) {
    flush_fastpath();
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    std::uint64_t probe = 0;
    const bool sampled = gate_ == nullptr ||
                         gate_->should_sample(&probe, ts->epoch_bits_addr());
    packed_.template access<IsWrite>(rt_.tool(), *ts, addr, size, sampled);
    // A 0 token (unprobed or sampled-out) is a no-op.
    if (gate_ != nullptr) gate_->time_end(probe);
    arm_fastpath(*ts, addr);  // no-op under a gate (fastpath_arm_ is off)
  }

  void mutex_lock(const void* m) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().acquire(*ts, packed_.lock_of(m));
  }

  void mutex_unlock(const void* m) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().release(*ts, packed_.lock_of(m));
  }

  // --- __tsan_atomic* sync events, keyed by address like locks. The
  // ordering discipline mirrors §4: store/rmw_pre run *before* the real
  // operation (publish before the value is visible), load/rmw_post run
  // *after* it (join once the value was observed). `mo` is the target's
  // declared memory order (TSan ABI == __ATOMIC_* values); the
  // VFT_ATOMICS mode (precise or sc) is applied inside.
  //
  // Atomic sync events run ungated (like mutex_lock/unlock: sampling
  // thins data accesses, never synchronization - a dropped edge would
  // manufacture false races, the one thing the sampling layer must never
  // do).

  void atomic_load(const void* a, int mo) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().atomic_load(*ts, packed_.atomic_of(a),
                           atomics::fence_tls(generation_),
                           atomics::effective_mo(atomics_mode_, mo));
  }

  void atomic_store(const void* a, int mo) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().atomic_store(*ts, packed_.atomic_of(a),
                            atomics::fence_tls(generation_),
                            atomics::effective_mo(atomics_mode_, mo));
  }

  void atomic_rmw_pre(const void* a, int mo) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().atomic_rmw_pre(*ts, packed_.atomic_of(a),
                              atomics::fence_tls(generation_),
                              atomics::effective_mo(atomics_mode_, mo));
  }

  void atomic_rmw_post(const void* a, int mo) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().atomic_rmw_post(*ts, packed_.atomic_of(a),
                               atomics::fence_tls(generation_),
                               atomics::effective_mo(atomics_mode_, mo));
  }

  void atomic_fence(int mo) override {
    ThreadState* ts = self_or_attach();
    if (ts == nullptr) return;
    rt_.tool().atomic_fence(*ts, atomics::fence_tls(generation_),
                            atomics::effective_mo(atomics_mode_, mo));
  }

  bool attach() override { return self_or_attach() != nullptr; }

  /// End-of-thread event for the calling thread (interposer: pthread key
  /// destructor; tests: explicit call). Detached and implicitly-attached
  /// threads retire their slot here; a joinable thread's slot instead
  /// stays live until its join handler has consumed the final clock.
  void detach() override {
    // The descriptor's epoch/cell pointers die with this binding; its tid
    // slot may be recycled by a later thread. Pending inline-hit tallies
    // are credited first - detach is a quiescent observation point - and
    // so are the gate's pending skips, which a thread that ends mid-gap
    // would otherwise take with it.
    flush_fastpath();
    vft_tl_fastpath = vft_fastpath_s{};
    if (gate_ != nullptr) gate_->flush_skips();
    SessionTls& tls = tl_session;
    if (tls.generation == generation_ && tls.record != nullptr) {
      std::scoped_lock lk(mu_);
      auto* rec = static_cast<ThreadRecord*>(tls.record);
      rec->ended = true;
      retire_if_due(*rec);
    }
    Registry::bind(nullptr);
    tl_session = SessionTls{};
  }

  /// Parent-side half of pthread_create, called *before* the native
  /// create (§4: the fork handler runs while the child state is still
  /// parent-local). Returns the child's token, or 0 when the registry is
  /// exhausted (the child then runs unmonitored).
  std::uint64_t thread_create() override {
    ThreadState* parent = self_or_attach();
    if (parent == nullptr) return 0;
    std::scoped_lock lk(mu_);
    ThreadState* child = rt_.registry().try_create();
    if (child == nullptr) {
      warn_exhausted();
      return 0;
    }
    rt_.tool().fork(*parent, *child);
    ++threads_seen_;
    const std::uint64_t token = next_token_++;
    records_.emplace(token, ThreadRecord{child, token});
    return token;
  }

  /// Child-side: bind the calling OS thread to its pre-created state.
  /// Must be the child's first action (the interposer's thread trampoline
  /// guarantees it).
  void thread_begin(std::uint64_t token) override {
    // A fresh binding must not inherit a descriptor. Tallies a previous
    // same-OS-thread binding left behind are still credited (the rule
    // pointers outlive bindings - they target this OS thread's shard of
    // the Session's RuleStats).
    flush_fastpath();
    vft_tl_fastpath = vft_fastpath_s{};
    if (token == 0) {
      tl_session = SessionTls{nullptr, generation_, /*unmonitored=*/true};
      return;
    }
    std::scoped_lock lk(mu_);
    auto it = records_.find(token);
    if (it == records_.end()) return;
    Registry::bind(it->second.ts);
    tl_session = SessionTls{&it->second, generation_, false};
  }

  /// Joiner-side half of pthread_join, called *after* the native join
  /// returned success (§4: the join handler runs when the child state is
  /// read-only). Consumes the token and retires the child's slot; a token
  /// whose detached thread already retired is gone, and joins nothing.
  void thread_join(std::uint64_t token) override {
    if (token == 0) return;
    ThreadState* joiner = self_or_attach();
    std::scoped_lock lk(mu_);
    auto it = records_.find(token);
    if (it == records_.end()) return;
    // The child may still be between "end of user code" and its key
    // destructor only in hand-driven tests; real pthread_join returns
    // after the child fully terminated.
    if (joiner != nullptr) rt_.tool().join(*joiner, *it->second.ts);
    rt_.registry().retire(*it->second.ts);
    records_.erase(it);
  }

  /// pthread_detach: no one will join this thread, so its end-of-thread
  /// event retires the slot (immediately, if it already ended).
  void thread_detach(std::uint64_t token) override {
    if (token == 0) return;
    std::scoped_lock lk(mu_);
    auto it = records_.find(token);
    if (it == records_.end()) return;
    it->second.detached = true;
    retire_if_due(it->second);
  }

  void free_hint(const void* addr, std::size_t size) override {
    if (size == 0) return;
    packed_.reset_range(addr, size);  // data, lock and atomic state
    // The access history is left alone: the reset re-bottomed every cell
    // in the range, so a prior a later race names was installed, and
    // recorded, after this free (docs/ALGORITHM.md s17.1).
  }

  std::size_t threads_seen() const override {
    std::scoped_lock lk(mu_);
    return threads_seen_;
  }

  std::size_t locks_seen() const override { return packed_.locks(); }

  std::size_t shadow_words() const override { return packed_.size(); }

 private:
  /// One target thread's lifecycle, live in records_ exactly while its
  /// slot is. The invariant behind "slot retired exactly once":
  /// retirement happens at exactly one of
  ///   - thread_join (joinable thread, whether or not it already ended),
  ///   - retire_if_due on end (detached or implicitly attached thread),
  ///   - retire_if_due on thread_detach (thread already ended),
  /// and each of them erases the record under mu_, so no path can find
  /// it again. A joinable thread that ends and is never joined keeps its
  /// slot and record (still consistent - just not reusable, exactly like a
  /// leaked pthread).
  struct ThreadRecord {
    ThreadState* ts;
    /// The record's key in records_. An implicit thread's token was never
    /// returned by thread_create, so no thread_join names it.
    std::uint64_t token;
    bool detached = false;
    bool ended = false;
  };

  /// VFT_FASTPATH=off|0 disables descriptor arming (the differential
  /// test's baseline half and an escape hatch). Sched builds never arm:
  /// an inline hit would skip the access's sched points.
  static bool fastpath_env_enabled() {
#ifdef VFT_SCHED
    return false;
#else
    const char* env = std::getenv("VFT_FASTPATH");
    return env == nullptr || (std::strcmp(env, "off") != 0 &&
                              std::strcmp(env, "0") != 0);
#endif
  }

  /// Credit the calling thread's pending inline hits to the counters its
  /// descriptor names (the same relaxed adds the out-of-line path
  /// performs, in bulk) and zero them - if the descriptor is this
  /// backend's: a stale one names counters that have since been reset.
  /// The inline hit only bumps the descriptor's plain tallies (even an
  /// uncontended locked add per access would cost more than the dispatch
  /// it saves), so every out-of-line access, thread_begin and detach
  /// flushes here, and at any quiescent point the counters are
  /// bit-identical to the out-of-line path's.
  void flush_fastpath() {
    vft_fastpath_s& fp = vft_tl_fastpath;
    if (fp.gen != generation_) return;
    credit(fp.rule_read, fp.hit_reads);
    credit(fp.rule_write, fp.hit_writes);
  }
  static void credit(std::uint64_t* const (&rule)[2], std::uint64_t& hits) {
    if (hits == 0) return;
    __atomic_fetch_add(rule[0], hits, __ATOMIC_RELAXED);
    __atomic_fetch_add(rule[1], hits, __ATOMIC_RELAXED);
    hits = 0;
  }

  /// Arm the calling thread's header-inlined descriptor
  /// (vft/fastpath_ctx.h) for the page just accessed: cache the epoch
  /// pointer and the page's cell array, then generation-stamp the
  /// descriptor live. Called after the access, so a same-address
  /// follow-up resolves inline against the {R, W} this access just
  /// recorded. Cheap re-arm check first: same page, same thread binding,
  /// still-live generation. A live descriptor's tallies are already
  /// zero here: access() flushed them on entry.
  void arm_fastpath(ThreadState& ts, const void* addr) {
    if (!fastpath_arm_) return;
    vft_fastpath_s& fp = vft_tl_fastpath;
    const std::uintptr_t base =
        ShadowGeometry::base_of(reinterpret_cast<std::uintptr_t>(addr));
    if (fp.gen == generation_ && fp.page_base == base &&
        fp.epoch_addr == ts.epoch_bits_addr()) {
      return;
    }
    if (fp.gen != generation_) {
      // Stale or cleared descriptor. Stale tallies were accrued against
      // counters that have since been reset - drop them. The flush targets
      // are this thread's own counter shard, which never changes for an
      // OS thread, so only this stamp has to fill them in.
      fp = vft_fastpath_s{};
      RuleStats& stats = *rt_.tool().stats();
      fp.rule_read[0] = counter(stats, Rule::kReadSameEpoch);
      fp.rule_read[1] = counter(stats, Rule::kFastReadHit);
      fp.rule_write[0] = counter(stats, Rule::kWriteSameEpoch);
      fp.rule_write[1] = counter(stats, Rule::kFastWriteHit);
    }
    fp.epoch_addr = ts.epoch_bits_addr();
    fp.page_base = base;
    fp.cells = packed_.page_cells(base);
    // generation_ snapshots the global at backend creation; if a reset
    // bumped the global since, this stamp leaves the descriptor stale and
    // the inline path keeps falling through - correct, since this backend
    // is being torn down.
    fp.gen = generation_;
  }

  /// The calling thread's shard of rule `r`'s counter, as the plain
  /// integer the C descriptor holds.
  static std::uint64_t* counter(RuleStats& stats, Rule r) {
    static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
    static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
    return reinterpret_cast<std::uint64_t*>(stats.counter_addr(r));
  }

  /// The calling thread's state, attaching implicitly on first contact.
  /// A wrapper-style ThreadScope binding (tests mixing APIs) wins; an
  /// exhausted registry leaves the thread unmonitored (nullptr).
  ThreadState* self_or_attach() {
    if (ThreadState* ts = Registry::current()) return ts;
    SessionTls& tls = tl_session;
    if (tls.generation == generation_ && tls.unmonitored) return nullptr;
    std::scoped_lock lk(mu_);
    ThreadState* ts = rt_.registry().try_create();
    if (ts == nullptr) {
      warn_exhausted();
      tl_session = SessionTls{nullptr, generation_, /*unmonitored=*/true};
      return nullptr;
    }
    ++threads_seen_;
    // Implicit threads have no joiner, so they behave as detached:
    // end-of-thread retires the slot.
    const std::uint64_t token = next_token_++;
    ThreadRecord& rec =
        records_.emplace(token, ThreadRecord{ts, token, /*detached=*/true})
            .first->second;
    Registry::bind(ts);
    tl_session = SessionTls{&rec, generation_, false};
    return ts;
  }

  /// Retire the slot and erase the record if this record's lifecycle is
  /// complete, leaving `rec` dangling. Caller holds mu_. Registry::retire
  /// rejects a double retire as a backstop.
  void retire_if_due(ThreadRecord& rec) {
    if (!rec.ended || !rec.detached) return;
    rt_.registry().retire(*rec.ts);
    records_.erase(rec.token);
  }

  void warn_exhausted() {
    if (warned_exhausted_) return;
    warned_exhausted_ = true;
    std::fprintf(
        stderr,
        "vft: warning: thread registry exhausted (%u concurrently-live "
        "target threads, the Epoch::kMaxTid limit); further threads run "
        "unmonitored and their accesses are invisible to the race "
        "analysis. Join or detach finished threads so tid slots can be "
        "reused.\n",
        static_cast<unsigned>(Epoch::kMaxTid) + 1);
  }

  Runtime<D> rt_;
  /// The raw-address shadow of data, locks and atomics, built with the
  /// backend: every thread that reaches the backend through Session's
  /// release/acquire publication sees it, so no event or free hint races
  /// its creation.
  PackedShadowSpace<D>& packed_;
  const atomics::Mode atomics_mode_ = atomics::mode_from_env();
  sampling::Gate* const gate_;  ///< nullptr: sampling off, every access sampled
  /// vft_g_fastpath_gen at creation (Session::reset() bumps the global):
  /// the stamp every SessionTls binding, fence state and descriptor this
  /// backend creates carries, so none of them outlives it.
  const std::uint64_t generation_ =
      __atomic_load_n(&vft_g_fastpath_gen, __ATOMIC_ACQUIRE);
  bool fastpath_arm_ = false;  ///< ungated + stats + env allow arming

  mutable std::mutex mu_;
  /// Every live thread's record, by token. Node-based: SessionTls keeps a
  /// pointer to its thread's record.
  std::unordered_map<std::uint64_t, ThreadRecord> records_;
  std::uint64_t next_token_ = 1;
  std::size_t threads_seen_ = 0;
  bool warned_exhausted_ = false;
};

/// The process-wide analysis session. The instance is intentionally
/// leaked: under the interposer, detached target threads can outlive
/// main(), and events arriving during static destruction must still find
/// a live session.
class Session {
 public:
  static Session& instance() {
    static Session* session = new Session();
    return *session;
  }

  /// Select the detector for the next backend creation (first use, or the
  /// next reset()). Accepts the CLI names: v1 v1.5 v2 ft-mutex ft-cas
  /// djit. Returns false (and changes nothing) for an unknown name; has
  /// no effect on an already-created backend until reset().
  bool configure(const std::string& name);

  /// The erased backend, created on first use from configure()'s choice
  /// or the VFT_DETECTOR environment variable (default v2).
  SessionBackend& backend() {
    if (SessionBackend* b = backend_ptr_.load(std::memory_order_acquire)) {
      return *b;
    }
    return create_backend();
  }

  RaceCollector& races() { return races_; }
  RuleStats& rule_stats() { return stats_; }

  /// The published backend without creating one: nullptr before the
  /// first event and after reset(), which withdraws it before destroying
  /// it.
  SessionBackend* live_backend() const {
    return backend_ptr_.load(std::memory_order_acquire);
  }

  /// The published backend's sampling gate, or nullptr when sampling is
  /// off or no backend is published. Never creates a backend, and never
  /// races its creation: the gate is built before the backend's release
  /// publication, and read only after an acquire load sees the backend.
  sampling::Gate* gate() const {
    return live_backend() != nullptr ? gate_.get() : nullptr;
  }

  /// Snapshot the end-of-run report document: the collector's error
  /// contexts plus the backend's process stats (report_io renders it as
  /// vft-report-v2 JSON or the plain compatibility format). clean_exit
  /// false marks a report written from a crash path.
  reportio::ReportDoc report_doc(bool clean_exit = true) {
    SessionBackend& b = backend();
    reportio::ReportDoc doc = reportio::build_report_doc(
        races_, b.detector_name(), b.threads_seen(), b.locks_seen(),
        b.shadow_words(), clean_exit);
    if (sampling::Gate* g = gate()) {
      const sampling::Config& cfg = g->config();
      const sampling::Stats s = g->snapshot();
      reportio::SamplingInfo& sp = doc.sampling;
      sp.enabled = true;
      sp.budget_pct = cfg.budget_pct;
      sp.rate0 = cfg.rate;
      sp.rate_ppm = static_cast<std::uint64_t>(s.rate * 1e6 + 0.5);
      sp.sampled = s.sampled;
      sp.skipped = s.skipped;
      sp.overhead_ns = s.overhead_ns;
      sp.busy_ns = s.busy_ns;
      sp.adjustments = s.adjustments;
    }
    return doc;
  }

  /// Typed access for the default configuration, used by the ambient
  /// wrappers (ambient::Thread/Lock) and same-detector fast paths. Fatal
  /// with a pointer at VFT_DETECTOR if the session runs another detector:
  /// mixing a typed v2 handler with, say, ft-cas state would corrupt both.
  Runtime<VftV2>& runtime() {
    backend();
    if (v2_ == nullptr) {
      detail::fatal(
          "this session was launched with detector '%s', but a caller "
          "asked for the typed VerifiedFT-v2 runtime (ambient wrappers "
          "and VFT_AMBIENT_* macros are v2-only). Launch with "
          "VFT_DETECTOR=v2 (the default), or route everything through "
          "the detector-erased ABI instead.",
          backend().detector_name());
    }
    return v2_->runtime();
  }

  /// Drops all analysis state (shadow, lock and atomic states, reports,
  /// thread registry) and re-creates the backend with the configured
  /// detector.
  /// Only safe while no ambient/ABI threads are live; intended for tests.
  void reset();

 private:
  /// Out of line (session.cpp): inlined, the members' constructors make
  /// instance() too large to inline into the ABI entry points, which then
  /// call it through the PLT on every event.
  Session();

  SessionBackend& create_backend();

  std::mutex mu_;
  std::string detector_;  ///< empty: resolve from env at creation
  std::unique_ptr<SessionBackend> backend_;
  std::atomic<SessionBackend*> backend_ptr_{nullptr};
  SessionImpl<VftV2>* v2_ = nullptr;
  std::unique_ptr<sampling::Gate> gate_;  ///< nullptr: sampling off
  bool suppressions_loaded_ = false;  ///< VFT_SUPPRESSIONS: once per process
  RaceCollector races_;
  RuleStats stats_;
};

}  // namespace vft::rt::ambient
