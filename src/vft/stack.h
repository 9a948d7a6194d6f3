// Bounded call-stack capture for race reports.
//
// Capture is fire-on-race only: the race-free fast path never walks a
// stack. What it *does* pay is two thread-local stores at the
// interposition boundary (src/interpose/preload.cpp): every __tsan_*
// access wrapper records its caller's return address and frame address in
// `vft_tl_event_ctx` before forwarding the event. When a race fires
// inside that event, capture_event_stack() starts from the recorded
// frame, so the walk yields *target* frames (the racing access site and
// its callers), never the analysis runtime's own frames - regardless of
// how the runtime itself was compiled.
//
// The walk is a classic frame-pointer chain ([fp] = caller fp,
// [fp+8] = return address on x86-64 and the equivalent layout on
// AArch64), validated hard: monotonically increasing frame addresses,
// pointer alignment, and containment in the calling thread's stack
// mapping (pthread_getattr_np, cached per thread). A target compiled
// without frame pointers degrades gracefully to the one guaranteed frame
// (the boundary return address); the native corpus compiles with
// -fno-omit-frame-pointer so its reports carry full chains.
//
// Depth is capped by VFT_STACK_DEPTH (default 16, max kMaxStackDepth).
// Frames resolve to module+offset via dladdr() only when a *new* error
// context is created (report.h) or a report is written - never per
// occurrence of an already-known race, and never on the access fast path.
#pragma once

#include <cstdint>
#include <string>

#include "vft/event_ctx.h"

namespace vft {

/// Hard upper bound on recorded frames; VFT_STACK_DEPTH can only lower it.
inline constexpr int kMaxStackDepth = 32;

/// A bounded, fixed-size call stack: raw return addresses, innermost
/// (the racing access site) first.
struct CallStack {
  std::uint8_t depth = 0;
  std::uintptr_t pc[kMaxStackDepth] = {};

  bool push(std::uintptr_t p) {
    if (depth >= kMaxStackDepth) return false;
    pc[depth++] = p;
    return true;
  }
  bool empty() const { return depth == 0; }

  friend bool operator==(const CallStack& a, const CallStack& b) {
    if (a.depth != b.depth) return false;
    for (std::uint8_t i = 0; i < a.depth; ++i) {
      if (a.pc[i] != b.pc[i]) return false;
    }
    return true;
  }
};

/// The effective depth cap: VFT_STACK_DEPTH clamped to [1, kMaxStackDepth]
/// (default 16). Read once per process.
int stack_depth_limit();

/// FNV-1a over the raw program counters, one 64-bit word per step
/// (process-local identity; the ASLR-stable cross-run key is computed from
/// resolved module+offset frames, see report.h). The multiply carries every
/// frame into the high bits, so callers indexing by hash use those.
std::uint64_t hash_stack(const CallStack& s);

/// Capture the current thread's stack for a race firing inside the
/// in-flight access event. Empty when no interposition boundary armed the
/// event context (wrapper-path and trace-replay callers: their reports
/// stay keyed by variable instead). Never allocates.
CallStack capture_event_stack();

/// One frame resolved for output and suppression matching. `module` is
/// the containing object's path and `offset` the module-relative address
/// (pc - load base): stable across ASLR, exactly what addr2line wants.
/// `symbol` is the nearest *dynamic* symbol when dladdr can see one
/// (static functions need offline symbolization) - good enough for
/// fun: suppression globs on exported functions.
struct ResolvedFrame {
  std::uintptr_t pc = 0;
  std::string module;          ///< empty: resolution failed
  std::uintptr_t offset = 0;   ///< pc when resolution failed
  std::string symbol;          ///< may be empty
  std::uintptr_t sym_offset = 0;
};

/// dladdr-based resolution; off the fast path by construction (new
/// contexts and report writing only).
ResolvedFrame resolve_frame(std::uintptr_t pc);

/// `module` shorn of its directory part, for cross-host context keys.
std::string module_basename(const std::string& module);

}  // namespace vft
