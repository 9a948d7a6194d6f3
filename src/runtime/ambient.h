// Ambient instrumentation: free functions keyed by raw addresses - the
// call interface a compiler instrumentation pass (TSan-style
// __tsan_read/__tsan_write) would emit, for code that cannot be rewritten
// against the rt:: wrappers.
//
// The VFT_AMBIENT_READ/WRITE macros annotate accesses to *existing* data
// structures; the ambient::Thread/Lock wrappers supply the fork/join and
// acquire/release events. One Session per process (see session.h; reset()
// for tests); every access routes through its backend's read()/write(),
// the same route the C ABI (src/abi/vft_abi.h) takes, so annotated code
// and interposed binaries share one analysis state.
//
// The default ambient detector is VerifiedFT-v2 over the lock-free
// two-level packed shadow space - the configuration a production
// deployment would pick; VFT_DETECTOR selects another at launch. The typed
// wrappers below (Thread, Lock, MainScope) are v2-only and fatal under a
// different detector. Shadow is word-granular: accesses within the same
// 8-byte word map to one packed cell (see shadow_space.h).
#pragma once

#include "runtime/instrument.h"
#include "runtime/session.h"
#include "vft/vft_v2.h"

namespace vft::rt::ambient {

// Reference-forwarding accessors that survive reset(). runtime() is the
// typed v2 view; backend() is the detector-erased session surface.
inline SessionBackend& backend() { return Session::instance().backend(); }
inline Runtime<VftV2>& runtime() { return Session::instance().runtime(); }
inline RaceCollector& races() { return Session::instance().races(); }

/// Registers the calling thread as the target's main thread.
class MainScope {
 public:
  MainScope() : scope_(runtime().registry().create()) {}

 private:
  Registry::ThreadScope scope_;
};

/// The events a pass emits before a sized access (memcpy-style or a
/// whole-struct read/write): one event per overlapped shadow word.
inline void on_range_read(const void* addr, std::size_t size) {
  backend().read(addr, size);
}

inline void on_range_write(const void* addr, std::size_t size) {
  backend().write(addr, size);
}

/// The event a compiler pass emits before a load of *addr.
inline void on_read(const void* addr) { on_range_read(addr, 1); }

/// The event a compiler pass emits before a store to *addr.
inline void on_write(const void* addr) { on_range_write(addr, 1); }

/// Instrumented thread over the ambient session.
class Thread {
 public:
  template <typename Fn>
  explicit Thread(Fn fn) : inner_(runtime(), std::move(fn)) {}

  void join() { inner_.join(); }

 private:
  rt::Thread<VftV2> inner_;
};

/// Instrumented lock over the ambient session.
class Lock {
 public:
  Lock() : inner_(runtime()) {}
  void lock() { inner_.lock(); }
  void unlock() { inner_.unlock(); }

 private:
  rt::Mutex<VftV2> inner_;
};

}  // namespace vft::rt::ambient

/// Annotation macros: evaluate to the address expression's value so they
/// can wrap existing reads/writes with minimal diff noise:
///   int v = VFT_AMBIENT_READ(&obj.field), *VFT_AMBIENT_READ(&p->x);
///   *VFT_AMBIENT_WRITE(&obj.field) = v;
#define VFT_AMBIENT_READ(addr) \
  (::vft::rt::ambient::on_read((addr)), (addr))
#define VFT_AMBIENT_WRITE(addr) \
  (::vft::rt::ambient::on_write((addr)), (addr))
