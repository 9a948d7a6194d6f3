#include "runtime/session.h"

#include <cstdlib>

namespace vft::rt::ambient {
namespace {

template <Detector D>
std::unique_ptr<SessionBackend> make_backend(RaceCollector* races,
                                             RuleStats* stats,
                                             sampling::Gate* gate) {
  return std::make_unique<SessionImpl<D>>(races, stats, gate);
}

/// The launch-time detector names (CLI / VFT_DETECTOR spelling) and the
/// backend each selects: the one list configure() validates against,
/// create_backend() builds from, and the unknown-name diagnostic prints.
struct DetectorEntry {
  const char* name;
  std::unique_ptr<SessionBackend> (*make)(RaceCollector*, RuleStats*,
                                          sampling::Gate*);
};

constexpr DetectorEntry kDetectors[] = {
    {"v1", &make_backend<VftV1>},
    {"v1.5", &make_backend<VftV15>},
    {"v2", &make_backend<VftV2>},
    {"ft-mutex", &make_backend<FtMutex>},
    {"ft-cas", &make_backend<FtCas>},
    {"djit", &make_backend<Djit>},
};

/// The entry named `name`, or nullptr for an unknown name.
const DetectorEntry* find_detector(const std::string& name) {
  for (const DetectorEntry& e : kDetectors) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::string detector_from_env() {
  if (const char* env = std::getenv("VFT_DETECTOR"); env != nullptr &&
      env[0] != '\0') {
    return env;
  }
  return "v2";
}

}  // namespace

Session::Session() = default;

bool Session::configure(const std::string& name) {
  // Validate against the table without constructing a backend: a dry
  // probe would allocate a whole runtime just to throw it away.
  if (find_detector(name) == nullptr) return false;
  std::scoped_lock lk(mu_);
  detector_ = name;
  return true;
}

SessionBackend& Session::create_backend() {
  std::scoped_lock lk(mu_);
  if (backend_ == nullptr) {
    if (detector_.empty()) detector_ = detector_from_env();
    // Suppression rules ride the same launch-time configuration surface
    // as the detector choice; load_suppressions_env warns (and skips the
    // file) on parse errors rather than failing the target's launch.
    // Loaded once per process: rules survive a reset() (the collector's
    // clear() keeps them), so a re-created backend must not double-load.
    if (!suppressions_loaded_) {
      suppressions_loaded_ = true;
      races_.load_suppressions_env(std::getenv("VFT_SUPPRESSIONS"));
    }
    // Build the sampling gate *before* the backend, which takes the
    // pointer, so the first access event already sees it. Re-read on
    // every (re-)creation - tests reconfigure via environment + reset().
    if (const sampling::Config scfg = sampling::config_from_env();
        scfg.enabled) {
      gate_ = std::make_unique<sampling::Gate>(scfg);
    }
    // The access-history layer (prior-side stacks in race reports) lives
    // in the collector, installed before the backend exists so the first
    // slow-path access can record; default ON, VFT_HISTORY=off disables.
    races_.set_history(history::enabled_from_env());
    const DetectorEntry* entry = find_detector(detector_);
    if (entry == nullptr) {
      std::string names;
      for (const DetectorEntry& e : kDetectors) {
        names += names.empty() ? "" : " ";
        names += e.name;
      }
      detail::fatal(
          "unknown detector '%s' (from VFT_DETECTOR); expected one of %s",
          detector_.c_str(), names.c_str());
    }
    backend_ = entry->make(&races_, &stats_, gate_.get());
    v2_ = detector_ == "v2"
              ? static_cast<SessionImpl<VftV2>*>(backend_.get())
              : nullptr;
    backend_ptr_.store(backend_.get(), std::memory_order_release);
  }
  return *backend_;
}

void Session::reset() {
  std::scoped_lock lk(mu_);
  // Invalidate every thread's session binding before tearing the backend
  // down: bumping the one generation makes stale SessionTls records, fence
  // states and header-inlined fast-path descriptors unreachable in one
  // shot, before the backend they point into is destroyed. Other threads
  // are quiescent by this function's contract; the calling thread drops
  // its registry binding and clears its own descriptor eagerly.
  __atomic_fetch_add(&vft_g_fastpath_gen, 1, __ATOMIC_RELEASE);
  Registry::bind(nullptr);
  tl_session = SessionTls{};
  vft_tl_fastpath = vft_fastpath_s{};
  backend_ptr_.store(nullptr, std::memory_order_release);
  v2_ = nullptr;
  backend_.reset();
  // The gate dies after the backend that held its pointer. No thread
  // holds it: per-thread countdowns keep only the gate's generation tag,
  // so a successor gate re-syncs them on first use.
  gate_.reset();
  races_.clear();
  // Drop the access history with the contexts: clocks restart with the
  // next backend, so old records would match new epochs.
  races_.set_history(false);
  stats_.reset();
}

}  // namespace vft::rt::ambient
