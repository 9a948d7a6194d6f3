// Experiment E13: per-access hot-path microbenchmarks for the ISSUE-2
// optimisations, with machine-readable output (BENCH_hotpath.json).
//
// Sections:
//   vc_leq / vc_join  per-ISA vector-clock kernel cost (ns/op) across
//                     clock sizes straddling the inline capacity, plus
//                     the speedup of each SIMD variant over scalar on the
//                     same inputs. Acceptance: AVX2 >= 1.5x scalar on the
//                     64-slot join/leq rows.
//   shadow_cache      PackedShadowSpace::cell_of() (thread-local page
//                     cache) vs cell_of_uncached() (hash + chain walk
//                     every lookup) on a sequential sweep, 1..max threads,
//                     at both a cache-resident and a >= 4 MiB-shadow
//                     working set.
//   packed_cell       ISSUE-3 A/B: same-epoch sweeps through the packed
//                     64-bit cell fast path vs the detector handler on one
//                     VarState per word, small and >= 4 MiB-shadow working
//                     sets. Acceptance: packed read >= 3x on the large
//                     sweep.
//   abi_dispatch      vft_read8 through the C ABI (header-inlined fast
//                     path, falling back to the reentrancy guard + the
//                     session backend's virtual call) vs the inlined
//                     wrapper path over the same packed shadow; the delta
//                     is the per-access interposition tax.
//   report_ctx        ISSUE-6 A/B: the same vft_read8 sweep with the
//                     stack-capture event context armed per access (the
//                     two TLS stores every __tsan_* wrapper pays) vs left
//                     unarmed, interleaved in alternating blocks with the
//                     per-mode spread reported. Stack walking fires only
//                     when a race does, so the race-free delta must be
//                     within the spread (acceptance: the hook adds no
//                     measurable fast-path cost).
//   sampling          ISSUE-7: sampled-out access cost through vft_read8
//                     (dispatch + packed-cell fast path only) at a 1/4096
//                     fixed rate, vs the exact path; plus the
//                     target-overhead controller's settling point under
//                     VFT_BUDGET=5.
//   history           A/B: the per-thread access history on the
//                     detector slow path ([Write Exclusive] traffic: epoch
//                     bumped every sweep so every access records an
//                     entry) vs the same traffic with the history
//                     uninstalled, plus a same-epoch row where the fast
//                     path must never touch it (pinned by
//                     check_bench_floor.sh).
//   range_memcpy      interposed bulk copy: vft_range_read + vft_range_write
//                     (the mem* wrappers' SIMD packed-cell prefix kernel)
//                     plus the real memcpy, vs the raw copy alone, on warm
//                     race-free pages. Acceptance: within 3x of raw.
//   volatile_load     rt::Volatile load, 1..max threads hammering one
//                     volatile after a single publication: every load
//                     takes DetectorBase::atomic_join's fast-epoch skip
//                     (the guarded atomic_dispatch load acquire_ns row
//                     pins the same skip on the interposed route).
//   barrier_phase     arrive_and_wait cost per phase (trajectory metric,
//                     not a floor: each arrival publishes into its round's
//                     AtomicState, whose clock grows under its own lock).
//
// Environment: VFT_HOTPATH_MAXTHREADS (default 8), VFT_HOTPATH_SCALE
// (default 1; multiplies every rep count), VFT_BENCH_JSON (output path,
// default BENCH_hotpath.json in the working directory).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "abi/vft_abi.h"
#include "harness.h"
#include "kernels/kernel.h"
#include "runtime/session.h"

namespace {

using namespace vft;
using bench::JsonReport;

std::size_t env_or(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    return static_cast<std::size_t>(std::atoll(v));
  }
  return fallback;
}

double now_minus(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Keep results observable so the measured loops cannot be elided. The
// kernels live in another TU, but the sink also guards the lookup loops.
std::atomic<std::uint64_t> g_sink{0};

// ---------------------------------------------------------------------------
// Section 1: vector-clock kernels, per ISA.
// ---------------------------------------------------------------------------

/// A well-formed-looking slot array: tid bits ascending, clock bits `c`.
std::vector<std::uint32_t> make_slots(std::size_t n, std::uint32_t c) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = (static_cast<std::uint32_t>(i & 0xff) << Epoch::kClockBits) |
           (c & ((1u << Epoch::kClockBits) - 1));
  }
  return v;
}

struct IsaFns {
  simd::Isa isa;
  bool (*leq)(const std::uint32_t*, const std::uint32_t*, std::size_t);
  void (*join)(std::uint32_t*, const std::uint32_t*, std::size_t);
};

void vc_kernel_section(JsonReport& json, std::size_t scale) {
  const IsaFns variants[] = {
      {simd::Isa::kScalar, simd::leq_all_scalar, simd::join_max_scalar},
      {simd::Isa::kSse2, simd::leq_all_sse2, simd::join_max_sse2},
      {simd::Isa::kAvx2, simd::leq_all_avx2, simd::join_max_avx2},
  };
  const std::size_t sizes[] = {4, 8, 16, 32, 64, 128, 256};

  std::printf("vector-clock kernels (ns per whole-clock op; dispatch=%s)\n",
              simd::isa_name(simd::active_isa()));
  std::printf("%6s %8s | %9s %9s %9s | %9s %9s %9s\n", "op", "slots",
              "scalar", "sse2", "avx2", "", "sse2 x", "avx2 x");

  for (const std::size_t n : sizes) {
    const auto a = make_slots(n, 7);
    const auto b = make_slots(n, 7);  // equal clocks: leq scans every slot
    auto src = make_slots(n, 9);
    const std::size_t reps = std::max<std::size_t>(
        1000, scale * 40'000'000 / n);

    double leq_ns[3] = {0, 0, 0};
    double join_ns[3] = {0, 0, 0};
    for (int v = 0; v < 3; ++v) {
      if (!simd::isa_available(variants[v].isa)) {
        leq_ns[v] = join_ns[v] = -1.0;
        continue;
      }
      std::uint64_t sink = 0;
      auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        sink += variants[v].leq(a.data(), b.data(), n) ? 1 : 0;
      }
      leq_ns[v] = 1e9 * now_minus(t0) / static_cast<double>(reps);

      auto dst = make_slots(n, 3);
      t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < reps; ++r) {
        variants[v].join(dst.data(), src.data(), n);
      }
      join_ns[v] = 1e9 * now_minus(t0) / static_cast<double>(reps);
      sink += dst[0];
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    }

    auto speedup = [](const double* ns, int v) {
      return ns[v] > 0 ? ns[0] / ns[v] : 0.0;
    };
    std::printf("%6s %8zu | %9.2f %9.2f %9.2f | %9s %8.2fx %8.2fx\n", "leq",
                n, leq_ns[0], leq_ns[1], leq_ns[2], "", speedup(leq_ns, 1),
                speedup(leq_ns, 2));
    std::printf("%6s %8zu | %9.2f %9.2f %9.2f | %9s %8.2fx %8.2fx\n", "join",
                n, join_ns[0], join_ns[1], join_ns[2], "", speedup(join_ns, 1),
                speedup(join_ns, 2));
    char name[32];
    std::snprintf(name, sizeof(name), "n%zu", n);
    json.add("vc_leq", name,
             {{"scalar_ns", leq_ns[0]},
              {"sse2_ns", leq_ns[1]},
              {"avx2_ns", leq_ns[2]},
              {"sse2_speedup", speedup(leq_ns, 1)},
              {"avx2_speedup", speedup(leq_ns, 2)}});
    json.add("vc_join", name,
             {{"scalar_ns", join_ns[0]},
              {"sse2_ns", join_ns[1]},
              {"avx2_ns", join_ns[2]},
              {"sse2_speedup", speedup(join_ns, 1)},
              {"avx2_speedup", speedup(join_ns, 2)}});
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Section 2: shadow-space lookup, page cache on vs off.
// ---------------------------------------------------------------------------

void shadow_cache_section(JsonReport& json, std::uint32_t max_threads,
                          std::size_t scale) {
  // Two access patterns bounding the cache's effect:
  //   sweep   sequential pass over the buffer - one miss per 512-slot page;
  //           the uncached path's bucket line is L1-hot too, so the win is
  //           the skipped hash arithmetic + atomic load.
  //   hammer  the same word over and over (a hot field / loop accumulator) -
  //           the cache's target case: two compares vs the full hash+walk.
  // Two working sets: 32K words (256 KiB shadow, cache-resident) and 512K
  // words (>= 4 MiB of shadow, exceeding L2 on the reference container) so
  // the page-cache win is measured both when the directory walk is
  // cache-hot and when every page touch goes to memory.
  std::printf("shadow-space lookup: cell_of() [page cache] vs "
              "cell_of_uncached()\n");
  std::printf("%8s %8s %8s %14s %14s %9s %14s\n", "pattern", "words",
              "threads", "cached ns/op", "uncached ns/op", "speedup",
              "cache misses");
  for (const std::size_t words : {std::size_t{32768}, std::size_t{1} << 19}) {
  const std::size_t sweeps =
      std::max<std::size_t>(1, 32 * scale / (words / 32768));
  for (const bool hammer : {false, true}) {
    for (std::uint32_t t = 1; t <= max_threads; t *= 2) {
      std::vector<double> buf(words, 0.0);
      RaceCollector races;
      rt::Runtime<rt::NullTool> R{rt::NullTool(&races)};
      rt::Runtime<rt::NullTool>::MainScope scope(R);
      auto& space = R.packed_space();

      auto run = [&](bool cached) {
        const auto t0 = std::chrono::steady_clock::now();
        rt::parallel_for_threads(R, t, [&](std::uint32_t) {
          std::uint64_t sink = 0;
          for (std::size_t s = 0; s < sweeps; ++s) {
            for (std::size_t i = 0; i < words; ++i) {
              const void* p = hammer ? &buf[0] : &buf[i];
              auto& cell =
                  cached ? space.cell_of(p) : space.cell_of_uncached(p);
              sink += reinterpret_cast<std::uintptr_t>(&cell);
            }
          }
          g_sink.fetch_add(sink, std::memory_order_relaxed);
        });
        return now_minus(t0);
      };

      const double ops = static_cast<double>(t) * sweeps * words;
      const double un = 1e9 * run(false) / ops;
      const std::size_t misses0 = space.stats().cache_misses;
      const double ca = 1e9 * run(true) / ops;
      const std::size_t misses =
          space.stats().cache_misses - misses0;  // misses in the cached run
      const char* pat = hammer ? "hammer" : "sweep";
      std::printf("%8s %7zuK %8u %14.2f %14.2f %8.2fx %14zu\n", pat,
                  words / 1024, t, ca, un, un / ca, misses);
      char name[48];
      std::snprintf(name, sizeof(name), "%s_w%zuk_t%u", pat, words / 1024, t);
      json.add("shadow_cache", name,
               {{"cached_ns", ca},
                {"uncached_ns", un},
                {"speedup", un / ca},
                {"cache_misses", static_cast<double>(misses)},
                {"lookups", ops},
                {"words", static_cast<double>(words)}});
    }
  }
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Section 2b: packed-cell same-epoch fast path vs detector-call path.
// ---------------------------------------------------------------------------

/// Sweeps a pre-owned buffer through (a) PackedShadowSpace - the inlined
/// 64-bit cell compare - and (b) the full detector handler on one VarState
/// per word. Both runs are pure same-epoch traffic (main's clock never
/// moves), so the delta is the fast-path saving. The small working set is
/// cache-resident; the large one puts >= 4 MiB of shadow behind every
/// sweep, where the packed cell's 16 B/word footprint (vs a full VarState)
/// also wins on memory traffic.
template <Detector D>
void packed_ab_rows(JsonReport& json, std::size_t scale) {
  for (const std::size_t words : {std::size_t{1} << 12, std::size_t{1} << 21}) {
    const std::size_t sweeps =
        words <= (std::size_t{1} << 12) ? 2048 * scale : 8 * scale;
    RaceCollector races;
    rt::Runtime<D> R{D(&races)};
    typename rt::Runtime<D>::MainScope scope(R);
    std::vector<std::uint64_t> buf(words, 1);
    auto& pspace = R.packed_space();
    std::vector<typename D::VarState> vstates(words);
    ThreadState& self = R.self();
    for (std::size_t i = 0; i < words; ++i) {
      vstates[i].id = reinterpret_cast<std::uint64_t>(&buf[i]);
      pspace.template access<true>(R.tool(), R.self(), &buf[i],
                                   sizeof(std::uint64_t));
      R.tool().write(self, vstates[i]);
    }

    auto time_pass = [&](auto&& access) {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t sink = 0;
      for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t i = 0; i < words; ++i) sink += access(i);
      }
      g_sink.fetch_add(sink, std::memory_order_relaxed);
      return 1e9 * now_minus(t0) /
             (static_cast<double>(sweeps) * static_cast<double>(words));
    };

    const double det_r =
        time_pass([&](std::size_t i) { return R.tool().read(self, vstates[i]); });
    const double pk_r = time_pass([&](std::size_t i) {
      return pspace.template access<false>(R.tool(), R.self(), &buf[i],
                                           sizeof(std::uint64_t));
    });
    const double det_w = time_pass(
        [&](std::size_t i) { return R.tool().write(self, vstates[i]); });
    const double pk_w = time_pass([&](std::size_t i) {
      return pspace.template access<true>(R.tool(), R.self(), &buf[i],
                                          sizeof(std::uint64_t));
    });
    VFT_CHECK(races.empty());
    VFT_CHECK(pspace.spilled() == 0);  // pure same-epoch: nothing escalated

    const double pk_mib =
        static_cast<double>(words) * 16.0 / (1024.0 * 1024.0);
    const double det_mib = static_cast<double>(words) *
                           static_cast<double>(sizeof(typename D::VarState)) /
                           (1024.0 * 1024.0);
    std::printf("%-8s %7zuK | read %6.2f vs %6.2f ns (%5.2fx) | "
                "write %6.2f vs %6.2f ns (%5.2fx) | shadow %.1f vs %.1f MiB\n",
                D::kName, words / 1024, pk_r, det_r, det_r / pk_r, pk_w, det_w,
                det_w / pk_w, pk_mib, det_mib);
    char name[48];
    std::snprintf(name, sizeof(name), "%s_w%zuk", D::kName, words / 1024);
    json.add("packed_cell", name,
             {{"packed_read_ns", pk_r},
              {"detector_read_ns", det_r},
              {"read_speedup", det_r / pk_r},
              {"packed_write_ns", pk_w},
              {"detector_write_ns", det_w},
              {"write_speedup", det_w / pk_w},
              {"packed_shadow_mib", pk_mib},
              {"varstate_shadow_mib", det_mib},
              {"words", static_cast<double>(words)}});
  }
}

void packed_section(JsonReport& json, std::size_t scale) {
  std::printf("packed-cell same-epoch fast path vs detector call "
              "(1 thread; packed vs detector-handler ns/op)\n");
  packed_ab_rows<VftV2>(json, scale);
  packed_ab_rows<FtCas>(json, scale);
  packed_ab_rows<VftV1>(json, scale);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Section: C-ABI dispatch cost (vft_read8 vs the inlined wrapper path).
// ---------------------------------------------------------------------------

/// What a real binary pays per access through the interposition stack:
/// vft_read8 tries the header-inlined descriptor first and otherwise
/// crosses the reentrancy guard and the session backend's virtual call
/// before reaching the same packed-cell fast path the inlined wrapper path
/// calls directly. Both runs are single-threaded pure same-epoch sweeps over a
/// cache-resident buffer against packed shadow, so the delta is the
/// dispatch overhead alone.
void abi_section(JsonReport& json, std::size_t scale) {
  const std::size_t words = std::size_t{1} << 12;
  const std::size_t sweeps = 2048 * scale;
  std::vector<std::uint64_t> buf(words, 1);

  // ABI path: the process-global session, thread attached implicitly by
  // the first event (as under LD_PRELOAD).
  rt::ambient::Session::instance().configure("v2");
  rt::ambient::Session::instance().reset();
  for (const std::uint64_t& w : buf) vft_write8(&w);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (const std::uint64_t& w : buf) vft_read8(&w);
  }
  const double abi_ns = 1e9 * now_minus(t0) /
                        (static_cast<double>(sweeps) *
                         static_cast<double>(words));
  VFT_CHECK(vft_race_count() == 0);
  vft_detach();
  rt::ambient::Session::instance().reset();

  // Inlined wrapper path: same traffic on a private runtime's packed
  // shadow, the cell fast path reached without any erased dispatch.
  RaceCollector races;
  rt::Runtime<VftV2> R{VftV2(&races)};
  rt::Runtime<VftV2>::MainScope scope(R);
  auto& space = R.packed_space();
  for (const std::uint64_t& w : buf) {
    space.access<true>(R.tool(), R.self(), &w, sizeof(w));
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (const std::uint64_t& w : buf) {
      sink += space.access<false>(R.tool(), R.self(), &w, sizeof(w));
    }
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  const double inl_ns = 1e9 * now_minus(t1) /
                        (static_cast<double>(sweeps) *
                         static_cast<double>(words));
  VFT_CHECK(races.empty());

  std::printf("C-ABI dispatch (vft_read8) vs inlined wrapper, "
              "same-epoch reads\n");
  std::printf("%8s %12s %12s %14s\n", "", "abi ns/op", "inline ns/op",
              "overhead ns");
  std::printf("%8s %12.2f %12.2f %14.2f\n\n", "read8", abi_ns, inl_ns,
              abi_ns - inl_ns);
  json.add("abi_dispatch", "read8",
           {{"abi_ns", abi_ns},
            {"inline_ns", inl_ns},
            {"overhead_ns", abi_ns - inl_ns},
            {"ratio", abi_ns / inl_ns}});
}

// ---------------------------------------------------------------------------
// Section: event-context arming cost (the report pipeline's fast-path tax).
// ---------------------------------------------------------------------------

/// What ISSUE-6 added to the race-free access path: the interposition
/// boundary stores its caller's return address and frame address into
/// `vft_tl_event_ctx` before every forwarded event (two thread-local
/// stores), and the ABI clears the context afterwards (one store, present
/// in both runs here). Everything else - the frame-pointer walk, dladdr,
/// dedup, suppression matching - runs only when a race actually fires, so
/// an armed race-free sweep must cost the same as an unarmed one.
void report_ctx_section(JsonReport& json, std::size_t scale) {
  const std::size_t words = std::size_t{1} << 12;
  // Interleaved A/B: back-to-back runs let the second arrangement ride a
  // warmer cache / higher clock and have produced impossible negative
  // overheads. Alternating short blocks lands drift on both sides equally;
  // the per-mode spread across blocks is reported so a delta smaller than
  // the spread reads as noise, not as a (possibly negative) cost.
  const int kBlocks = 16;  // measured blocks per mode
  const std::size_t block_sweeps = std::max<std::size_t>(1, 128 * scale);
  std::vector<std::uint64_t> buf(words, 1);

  rt::ambient::Session::instance().configure("v2");
  rt::ambient::Session::instance().reset();
  for (const std::uint64_t& w : buf) vft_write8(&w);

  auto block = [&](bool armed) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < block_sweeps; ++s) {
      for (const std::uint64_t& w : buf) {
        if (armed) {
          // Exactly the interposer's VFT_ARM_EVENT_CTX: two TLS stores.
          vft_tl_event_ctx.pc = __builtin_return_address(0);
          vft_tl_event_ctx.fp = __builtin_frame_address(0);
        }
        vft_read8(&w);
      }
    }
    return 1e9 * now_minus(t0) /
           (static_cast<double>(block_sweeps) * static_cast<double>(words));
  };

  block(false);  // warm both paths before measuring
  block(true);
  double sum[2] = {0, 0};
  double lo[2] = {1e30, 1e30};
  double hi[2] = {0, 0};
  for (int b = 0; b < kBlocks; ++b) {
    for (int armed = 0; armed < 2; ++armed) {
      const double ns = block(armed != 0);
      sum[armed] += ns;
      lo[armed] = std::min(lo[armed], ns);
      hi[armed] = std::max(hi[armed], ns);
    }
  }
  const double bare_ns = sum[0] / kBlocks;
  const double armed_ns = sum[1] / kBlocks;
  const double spread_ns = std::max(hi[0] - lo[0], hi[1] - lo[1]);
  VFT_CHECK(vft_race_count() == 0);
  vft_detach();
  rt::ambient::Session::instance().reset();

  std::printf("event-context arming (stack-capture hook) on vft_read8, "
              "race-free same-epoch reads (%d interleaved blocks/mode)\n",
              kBlocks);
  std::printf("%8s %12s %12s %14s %12s\n", "", "bare ns/op", "armed ns/op",
              "overhead ns", "spread ns");
  std::printf("%8s %12.2f %12.2f %14.2f %12.2f\n\n", "read8", bare_ns,
              armed_ns, armed_ns - bare_ns, spread_ns);
  json.add("report_ctx", "read8",
           {{"bare_ns", bare_ns},
            {"armed_ns", armed_ns},
            {"overhead_ns", armed_ns - bare_ns},
            {"spread_ns", spread_ns},
            {"ratio", armed_ns / bare_ns}});
}

// ---------------------------------------------------------------------------
// Section: sampling gate (ISSUE-7) - sampled-out cost and the controller.
// ---------------------------------------------------------------------------

/// What an always-on deployment pays for the accesses the gate throws
/// away. Two vft_read8 sweeps over the same cache-resident buffer:
///   exact   sampling off - the ABI path of abi_dispatch (header-inlined
///           hits once the descriptor is armed).
///   cell    a near-zero fixed rate: skipped accesses still cross the
///           dispatch into the session and run the packed-cell fast path,
///           keeping last-access metadata fresh. The inline path is
///           disarmed under any gate, so this is the sampled-out floor.
/// The controller row then runs the same sweep under VFT_BUDGET and
/// reports where the rate and the measured overhead settled (acceptance:
/// within +-2 points of the budget).
void sampling_section(JsonReport& json, std::size_t scale) {
  const std::size_t words = std::size_t{1} << 12;
  const std::size_t sweeps = 2048 * scale;
  std::vector<std::uint64_t> buf(words, 1);

  auto sweep_ns = [&]() {
    rt::ambient::Session::instance().configure("v2");
    rt::ambient::Session::instance().reset();
    for (const std::uint64_t& w : buf) vft_write8(&w);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < sweeps; ++s) {
      for (const std::uint64_t& w : buf) vft_read8(&w);
    }
    const double ns = 1e9 * now_minus(t0) /
                      (static_cast<double>(sweeps) *
                       static_cast<double>(words));
    VFT_CHECK(vft_race_count() == 0);
    return ns;
  };
  auto teardown = [&]() {
    vft_detach();
    rt::ambient::Session::instance().reset();
  };

  // 1/4096 fixed rate: >99.97% of accesses take the sampled-out path, so
  // the sweep time is the skip cost to within a fraction of a ns.
  const char* kSkipSpec = "rate=0.000244,seed=7";

  unsetenv("VFT_SAMPLING");
  unsetenv("VFT_BUDGET");
  const double exact_ns = sweep_ns();
  teardown();

  setenv("VFT_SAMPLING", kSkipSpec, 1);
  const double cell_ns = sweep_ns();
  teardown();

  // Controller: 5% budget. The bench loop is pure detector traffic, so
  // "overhead" here is the sampled fraction's self-time against the whole
  // sweep's wall time - exactly the signal the controller regulates; it
  // must settle near the budget.
  setenv("VFT_SAMPLING", "seed=7", 1);
  setenv("VFT_BUDGET", "5", 1);
  const double budget_ns = sweep_ns();
  vft_sampling_stats_s st;
  const int have_stats = vft_sampling_stats(&st);
  VFT_CHECK(have_stats == 1);
  teardown();
  unsetenv("VFT_SAMPLING");
  unsetenv("VFT_BUDGET");

  std::printf("sampling gate on vft_read8 (rate=1/4096 fixed; "
              "sampled-out ns/op)\n");
  std::printf("%8s %12s %12s\n", "", "exact ns", "cell ns");
  std::printf("%8s %12.2f %12.2f\n", "read8", exact_ns, cell_ns);
  std::printf("controller @5%%: sweep %.2f ns/op, rate now %.4f, "
              "measured overhead %.2f%% (%llu adjustments)\n\n", budget_ns,
              st.rate, st.overhead_pct,
              static_cast<unsigned long long>(st.adjustments));
  json.add("sampling", "sampled_out",
           {{"exact_ns", exact_ns},
            {"cell_ns", cell_ns},
            {"cell_vs_exact", exact_ns / cell_ns}});
  json.add("sampling", "controller_budget5",
           {{"sweep_ns", budget_ns},
            {"rate", st.rate},
            {"overhead_pct", st.overhead_pct},
            {"adjustments", static_cast<double>(st.adjustments)},
            {"sampled", static_cast<double>(st.sampled)},
            {"skipped", static_cast<double>(st.skipped)}});
}

// ---------------------------------------------------------------------------
// Section: access-history recording cost (ISSUE-10).
// ---------------------------------------------------------------------------

/// What the two-stack report machinery costs, and where. Recording is
/// slow-path-only by construction, so two interleaved A/B rows:
///   spill_write  every write is [Write Exclusive] (the thread's epoch is
///                bumped between sweeps), so with the history on every
///                access captures its stack, interns it, and writes its
///                thread's table slot. The on/off delta is the full
///                per-record cost - paid only on epoch transitions, which
///                the Section 5 access mix puts at ~1% of accesses.
///   same_epoch_write  the same traffic without the epoch bump: pure
///                [Write Same Epoch] hits that return before the history
///                hook, so on-vs-off must be indistinguishable.
///                check_bench_floor.sh pins the "on" value.
/// The two modes are two detectors on the same variables, reporting to a
/// collector without a history and to one that owns a history.
void history_section(JsonReport& json, std::size_t scale) {
  const std::size_t vars_n = std::size_t{1} << 10;
  const int kBlocks = 8;
  const std::size_t block_sweeps = std::max<std::size_t>(1, 16 * scale);

  // One history for every "on" block: a steady-state table and a warm
  // intern table, not first-touch allocation.
  RaceCollector races_off;
  RaceCollector races_on;
  races_on.set_history(true);
  VftV2 det_off(&races_off);
  VftV2 det_on(&races_on);
  ThreadState st(0);
  std::deque<VftV2::VarState> vars(vars_n);
  for (std::size_t i = 0; i < vars_n; ++i) {
    vars[i].id = 0x1000 + 8 * i;
  }

  auto block = [&](bool slow, bool with_history) {
    VftV2& det = with_history ? det_on : det_off;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < block_sweeps; ++s) {
      for (auto& x : vars) {
        // The interposer's arming stores, so a recorded stack is the
        // real fp-walk capture, not the empty-context degenerate case.
        vft_tl_event_ctx.pc = __builtin_return_address(0);
        vft_tl_event_ctx.fp = __builtin_frame_address(0);
        det.write(st, x);
      }
      if (slow) st.inc();  // next sweep: every write is [Write Exclusive]
    }
    vft_tl_event_ctx = vft_event_ctx_s{};
    return 1e9 * now_minus(t0) /
           (static_cast<double>(block_sweeps) * static_cast<double>(vars_n));
  };

  std::printf("access history on the v2 slow path "
              "(%d interleaved blocks/mode)\n", kBlocks);
  std::printf("%18s %12s %12s %14s %12s\n", "", "off ns/op", "on ns/op",
              "overhead ns", "spread ns");
  for (const bool slow : {true, false}) {
    block(slow, false);  // warm both modes before measuring
    block(slow, true);
    double sum[2] = {0, 0};
    double lo[2] = {1e30, 1e30};
    double hi[2] = {0, 0};
    for (int b = 0; b < kBlocks; ++b) {
      for (int on = 0; on < 2; ++on) {
        const double ns = block(slow, on != 0);
        sum[on] += ns;
        lo[on] = std::min(lo[on], ns);
        hi[on] = std::max(hi[on], ns);
      }
    }
    const double off_ns = sum[0] / kBlocks;
    const double on_ns = sum[1] / kBlocks;
    const double spread_ns = std::max(hi[0] - lo[0], hi[1] - lo[1]);
    const char* name = slow ? "spill_write" : "same_epoch_write";
    std::printf("%18s %12.2f %12.2f %14.2f %12.2f\n", name, off_ns, on_ns,
                on_ns - off_ns, spread_ns);
    json.add("history", name,
             {{"off_ns", off_ns},
              {"on_ns", on_ns},
              {"overhead_ns", on_ns - off_ns},
              {"spread_ns", spread_ns},
              {"ratio", on_ns / off_ns}});
  }
  VFT_CHECK(races_off.empty() && races_on.empty());
  std::printf("interned_stacks=%zu\n\n",
              races_on.history()->interned_stacks());
}

// ---------------------------------------------------------------------------
// Section: atomic-event cost (the __tsan_atomic* sync surface).
// ---------------------------------------------------------------------------

/// What an interposed std::atomic load costs per declared order, against
/// the plain read8 ABI sweep as the baseline. The two orders take
/// structurally different paths (docs/ALGORITHM.md §16.2-16.3):
///   acquire  after a single release publisher the fast-epoch arm holds
///            that publisher's epoch; a loader whose clock already
///            covers it (here: the publisher itself) resolves with one
///            acquire load + epoch compare, no lock;
///   relaxed  always takes the locked accumulate path - the location's
///            sync clock must be folded into the thread's fence TLS so
///            a later acquire fence can retroactively pair with the
///            load. This is the price of fence soundness, and it is
///            paid per relaxed load.
/// Both loops hit one address, the steady state of a spin-loop consumer.
void atomics_section(JsonReport& json, std::size_t scale) {
  const std::size_t words = std::size_t{1} << 12;
  const std::size_t sweeps = 2048 * scale;
  const std::size_t ops = sweeps * words;
  std::vector<std::uint64_t> buf(words, 1);
  static std::uint64_t flag = 0;  // the "atomic" address (analysis only)

  rt::ambient::Session::instance().configure("v2");
  rt::ambient::Session::instance().reset();

  // Plain-access baseline: the same-epoch read8 sweep through the ABI.
  for (const std::uint64_t& w : buf) vft_write8(&w);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < sweeps; ++s) {
    for (const std::uint64_t& w : buf) vft_read8(&w);
  }
  const double plain_ns = 1e9 * now_minus(t0) / static_cast<double>(ops);

  // Arm the fast epoch: one release publication by this thread.
  vft_atomic_store(&flag, 3 /* __ATOMIC_RELEASE */);

  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    vft_atomic_load(&flag, 2 /* __ATOMIC_ACQUIRE */);
  }
  const double acq_ns = 1e9 * now_minus(t1) / static_cast<double>(ops);

  const auto t2 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    vft_atomic_load(&flag, 0 /* __ATOMIC_RELAXED */);
  }
  const double rlx_ns = 1e9 * now_minus(t2) / static_cast<double>(ops);

  VFT_CHECK(vft_race_count() == 0);
  vft_detach();
  rt::ambient::Session::instance().reset();

  std::printf("atomic load events (one address) vs plain read8 sweep\n");
  std::printf("%12s %12s %12s %12s\n", "", "acquire ns", "relaxed ns",
              "plain ns");
  std::printf("%12s %12.2f %12.2f %12.2f\n\n", "atomic_load", acq_ns,
              rlx_ns, plain_ns);
  json.add("atomic_dispatch", "load",
           {{"acquire_ns", acq_ns},
            {"relaxed_ns", rlx_ns},
            {"plain_read8_ns", plain_ns},
            {"acquire_vs_plain", acq_ns / plain_ns},
            {"relaxed_vs_acquire", rlx_ns / acq_ns}});
}

// ---------------------------------------------------------------------------
// Section: interposed-range cost (the mem* wrappers' SIMD prefix kernel).
// ---------------------------------------------------------------------------

/// What the mem*/str* interposition adds to a bulk copy: each wrapped
/// memcpy pays one vft_range_read over the source and one vft_range_write
/// over the destination before the real copy runs. With warm same-epoch
/// cells (the steady state of a phase-local buffer) the whole range
/// resolves in the SIMD prefix kernel - 4-8 packed cells per vector
/// compare - so the analysis tax stays within a small factor of the raw
/// copy itself. Acceptance: vft_ns / raw_ns <= 3 on race-free pages.
void range_section(JsonReport& json, std::size_t scale) {
  rt::ambient::Session::instance().configure("v2");
  rt::ambient::Session::instance().reset();

  // Advance the main thread's clock past its startup epoch: tid 0 at
  // clock 1 has epoch bits == 1, which collides with the ESCALATED
  // sentinel's W half and forces the SIMD write kernel onto its guarded
  // (sentinel-checking) loop. One release gets the steady state every
  // synchronizing program runs in, which is what the row should measure.
  static long range_clock_tick = 0;
  vft_mutex_lock(&range_clock_tick);
  vft_mutex_unlock(&range_clock_tick);

  std::printf("interposed memcpy (range events + copy) vs raw memcpy, "
              "warm same-epoch cells\n");
  std::printf("%8s %12s %12s %9s\n", "bytes", "vft ns/cp", "raw ns/cp",
              "ratio");
  for (const std::size_t bytes : {std::size_t{4096}, std::size_t{65536}}) {
    const std::size_t reps = std::max<std::size_t>(1, 200'000 * scale /
                                                          (bytes / 4096));
    std::vector<std::uint64_t> src(bytes / 8, 1);
    std::vector<std::uint64_t> dst(bytes / 8, 0);
    // Warm both shadow halves: the read pass advances every source cell's
    // R half to this epoch, the write pass stamps the destination's W.
    vft_range_read(src.data(), bytes);
    vft_range_write(dst.data(), bytes);

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      vft_range_read(src.data(), bytes);
      vft_range_write(dst.data(), bytes);
      std::memcpy(dst.data(), src.data(), bytes);
      g_sink.fetch_add(dst[0], std::memory_order_relaxed);
    }
    const double vft_ns = 1e9 * now_minus(t0) / static_cast<double>(reps);

    t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      std::memcpy(dst.data(), src.data(), bytes);
      g_sink.fetch_add(dst[0], std::memory_order_relaxed);
    }
    const double raw_ns = 1e9 * now_minus(t0) / static_cast<double>(reps);
    VFT_CHECK(vft_race_count() == 0);

    std::printf("%8zu %12.2f %12.2f %8.2fx\n", bytes, vft_ns, raw_ns,
                vft_ns / raw_ns);
    char name[32];
    std::snprintf(name, sizeof(name), "b%zu", bytes);
    json.add("range_memcpy", name,
             {{"vft_ns", vft_ns},
              {"raw_ns", raw_ns},
              {"ratio", vft_ns / raw_ns},
              {"bytes", static_cast<double>(bytes)}});
  }
  std::printf("\n");
  vft_detach();
  rt::ambient::Session::instance().reset();
}

// ---------------------------------------------------------------------------
// Section 3: Volatile load on the fast-epoch skip.
// ---------------------------------------------------------------------------

void volatile_section(JsonReport& json, std::uint32_t max_threads,
                      std::size_t scale) {
  const std::size_t loads = 200'000 * scale;

  std::printf("rt::Volatile load under VerifiedFT-v2 (fast-epoch skip)\n");
  std::printf("%8s %12s\n", "threads", "fast ns/op");
  for (std::uint32_t t = 1; t <= max_threads; t *= 2) {
    RaceCollector races;
    rt::Runtime<VftV2> R{VftV2(&races)};
    rt::Runtime<VftV2>::MainScope scope(R);
    rt::Volatile<int, VftV2> v(R, 0);
    v.store(42);  // one publication; every load then skips the join
    const auto t0 = std::chrono::steady_clock::now();
    rt::parallel_for_threads(R, t, [&](std::uint32_t) {
      std::uint64_t sink = 0;
      for (std::size_t i = 0; i < loads; ++i) {
        sink += static_cast<std::uint64_t>(v.load());
      }
      g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
    const double secs = now_minus(t0);
    if (!races.empty()) {
      std::fprintf(stderr, "FATAL: volatile workload reported races\n");
      std::exit(1);
    }
    const double fast = 1e9 * secs / (static_cast<double>(t) * loads);
    std::printf("%8u %12.2f\n", t, fast);
    char name[32];
    std::snprintf(name, sizeof(name), "t%u", t);
    json.add("volatile_load", name, {{"fast_ns", fast}});
  }
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Section 4: Barrier phase cost (trajectory metric).
// ---------------------------------------------------------------------------

void barrier_section(JsonReport& json, std::uint32_t max_threads,
                     std::size_t scale) {
  const std::size_t phases = 2'000 * scale;

  std::printf("rt::Barrier arrive_and_wait under VerifiedFT-v2\n");
  std::printf("%8s %14s\n", "threads", "ns/phase");
  for (std::uint32_t t = 2; t <= max_threads; t *= 2) {
    RaceCollector races;
    rt::Runtime<VftV2> R{VftV2(&races)};
    rt::Runtime<VftV2>::MainScope scope(R);
    rt::Barrier<VftV2> bar(R, t);
    const auto t0 = std::chrono::steady_clock::now();
    rt::parallel_for_threads(R, t, [&](std::uint32_t) {
      for (std::size_t p = 0; p < phases; ++p) bar.arrive_and_wait();
    });
    const double ns = 1e9 * now_minus(t0) / static_cast<double>(phases);
    std::printf("%8u %14.2f\n", t, ns);
    char name[32];
    std::snprintf(name, sizeof(name), "t%u", t);
    json.add("barrier_phase", name, {{"ns_per_phase", ns}});
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const auto max_threads =
      static_cast<std::uint32_t>(env_or("VFT_HOTPATH_MAXTHREADS", 8));
  const std::size_t scale = env_or("VFT_HOTPATH_SCALE", 1);

  std::printf("Hot-path microbenchmarks (E13)\n");
  std::printf("dispatched vector-clock ISA: %s\n\n",
              simd::isa_name(simd::active_isa()));

  JsonReport json("hotpath");
  json.context("isa", simd::isa_name(simd::active_isa()));
  json.context("max_threads", std::to_string(max_threads));
  json.context("scale", std::to_string(scale));

  vc_kernel_section(json, scale);
  shadow_cache_section(json, max_threads, scale);
  packed_section(json, scale);
  abi_section(json, scale);
  report_ctx_section(json, scale);
  sampling_section(json, scale);
  history_section(json, scale);
  atomics_section(json, scale);
  range_section(json, scale);
  volatile_section(json, max_threads, scale);
  barrier_section(json, max_threads, scale);

  return json.write("BENCH_hotpath.json") ? 0 : 1;
}
