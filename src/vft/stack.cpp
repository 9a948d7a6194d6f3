#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "vft/stack.h"

#include <dlfcn.h>
#include <pthread.h>

#include <cstdlib>

#include "vft/fastpath_ctx.h"

extern "C" {
thread_local vft_event_ctx_s vft_tl_event_ctx = {nullptr, nullptr};
thread_local vft_shadow_stack_s vft_tl_shadow_stack = {};
thread_local vft_fastpath_s vft_tl_fastpath = {};
// Starts at 1 so a zero-initialized thread descriptor is always stale.
uint64_t vft_g_fastpath_gen = 1;
}

namespace vft {
namespace {

/// The calling thread's stack mapping [lo, hi), from pthread_getattr_np,
/// resolved lazily and cached per thread. Queried only on the race path.
struct StackBounds {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  bool resolved = false;
};
thread_local StackBounds tl_bounds;

StackBounds thread_stack_bounds() {
  StackBounds& b = tl_bounds;
  if (!b.resolved) {
    b.resolved = true;
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
      void* addr = nullptr;
      std::size_t size = 0;
      if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
        b.lo = reinterpret_cast<std::uintptr_t>(addr);
        b.hi = b.lo + size;
      }
      pthread_attr_destroy(&attr);
    }
  }
  return b;
}

}  // namespace

int stack_depth_limit() {
  static const int limit = [] {
    int d = 16;
    if (const char* env = std::getenv("VFT_STACK_DEPTH");
        env != nullptr && env[0] != '\0') {
      d = std::atoi(env);
    }
    if (d < 1) d = 1;
    if (d > kMaxStackDepth) d = kMaxStackDepth;
    return d;
  }();
  return limit;
}

std::uint64_t hash_stack(const CallStack& s) {
  // Word steps rather than FNV-1a's byte steps: every history record
  // hashes its stack, and one multiply per frame keeps that cheap.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t i = 0; i < s.depth; ++i) {
    h ^= static_cast<std::uint64_t>(s.pc[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Fallback caller frames from the __tsan_func_entry/exit shadow stack
/// (vft/event_ctx.h), innermost first. Used when the frame-pointer walk
/// found no caller - a target compiled without frame pointers leaves the
/// fp chain dead, but its instrumented prologues still recorded every
/// live call site.
void append_shadow_frames(CallStack& cs, int limit) {
  const vft_shadow_stack_s& ss = vft_tl_shadow_stack;
  uint32_t top = ss.depth;
  if (top > VFT_SHADOW_STACK_MAX) top = VFT_SHADOW_STACK_MAX;
  for (uint32_t i = top; i != 0 && cs.depth < limit; --i) {
    const auto pc = reinterpret_cast<std::uintptr_t>(ss.pc[i - 1]);
    if (pc < 4096) continue;
    // The innermost shadow entry is the call into the function holding
    // the access; if the fp walk already produced that frame, skip it.
    if (cs.depth > 0 && cs.pc[cs.depth - 1] == pc) continue;
    cs.push(pc);
  }
}

}  // namespace

CallStack capture_event_stack() {
  CallStack cs;
  const vft_event_ctx_s ctx = vft_tl_event_ctx;
  const int limit = stack_depth_limit();
  if (ctx.pc == nullptr) {
    // No interposition boundary armed the event context (wrapper-path
    // callers, or a prior-side capture after the boundary already
    // cleared it). The __tsan_func_entry/exit shadow stack still knows
    // the live call chain, so prior-side history entries degrade to the
    // instrumented callers instead of to an empty stack.
    append_shadow_frames(cs, limit);
    return cs;
  }
  cs.push(reinterpret_cast<std::uintptr_t>(ctx.pc));
  if (ctx.fp == nullptr) {
    append_shadow_frames(cs, limit);
    return cs;
  }

  // Walk caller frames from the boundary wrapper's frame. Every frame
  // address must stay inside this thread's stack mapping and strictly
  // increase, so each dereference is of live, mapped stack memory even
  // when a non-frame-pointer target left garbage in the chain.
  StackBounds bounds = thread_stack_bounds();
  std::uintptr_t fp = reinterpret_cast<std::uintptr_t>(ctx.fp);
  if (bounds.hi == 0) {
    // No mapping info: allow a tight window above the known-live frame.
    bounds.lo = fp;
    bounds.hi = fp + (64u << 10);
  }
  auto valid = [&bounds](std::uintptr_t p) {
    return p >= bounds.lo && p + 2 * sizeof(std::uintptr_t) <= bounds.hi &&
           (p & (sizeof(std::uintptr_t) - 1)) == 0;
  };
  if (!valid(fp)) {
    append_shadow_frames(cs, limit);
    return cs;
  }
  // [fp+8] here is the return into the target - ctx.pc again - so only
  // the *next* frame up contributes a new caller PC.
  fp = reinterpret_cast<const std::uintptr_t*>(fp)[0];
  std::uintptr_t prev = reinterpret_cast<std::uintptr_t>(ctx.fp);
  while (cs.depth < limit && valid(fp) && fp > prev) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = frame[1];
    if (ret < 4096) break;  // null page: end of chain / garbage
    cs.push(ret);
    prev = fp;
    fp = frame[0];
  }
  // An fp walk that never left the boundary frame means the target has no
  // frame-pointer chain; the shadow stack still knows the callers.
  if (cs.depth < 2) append_shadow_frames(cs, limit);
  return cs;
}

ResolvedFrame resolve_frame(std::uintptr_t pc) {
  ResolvedFrame f;
  f.pc = pc;
  f.offset = pc;
  Dl_info info;
  // Resolve pc-1: a captured frame is a *return* address, one past the
  // call; the byte before it is inside the calling instruction and
  // therefore inside the right module/symbol even at function tails.
  if (pc != 0 && dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_fname != nullptr) {
    f.module = info.dli_fname;
    f.offset = pc - reinterpret_cast<std::uintptr_t>(info.dli_fbase);
    if (info.dli_sname != nullptr) {
      f.symbol = info.dli_sname;
      f.sym_offset = pc - reinterpret_cast<std::uintptr_t>(info.dli_saddr);
    }
  }
  return f;
}

std::string module_basename(const std::string& module) {
  const std::size_t slash = module.find_last_of('/');
  return slash == std::string::npos ? module : module.substr(slash + 1);
}

}  // namespace vft
