// Extension experiment E12: shadow-memory footprint. The paper's Section 9
// surveys shadow compression precisely because per-variable analysis state
// is the dominant memory cost of precise detectors. This bench reports:
//   - static VarState size per detector,
//   - measured bytes per shadowed element for a large instrumented array
//     (allocation deltas, including the vector-clock spill for read-shared
//     data) in the fine-grained wrapper shadow,
//   - measured bytes per *word* of target memory for the packed-cell
//     shadow (PackedShadowSpace): epoch-only workloads stay in the 16 B
//     cell+spill-slot pages, read-shared workloads pay the VarState spill,
//   - ThreadState/LockState sizes.
#include <cstdio>
#include <new>
#include <vector>

#include "harness.h"
#include "runtime/instrument.h"
#include "vft/detector.h"

namespace {

using namespace vft;

// Allocation meter: counts bytes handed out by global new.
std::size_t g_alloc_bytes = 0;

}  // namespace

void* operator new(std::size_t n) {
  g_alloc_bytes += n;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  g_alloc_bytes += n;
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Bytes allocated while building an N-element instrumented array and
/// driving it into the given sharing mode.
template <Detector D>
std::size_t measure(std::size_t n, bool make_shared) {
  RaceCollector races;
  rt::Runtime<D> R{D(&races)};
  typename rt::Runtime<D>::MainScope scope(R);
  const std::size_t before = g_alloc_bytes;
  rt::Array<std::uint64_t, D> a(R, n);
  if (make_shared) {
    // Two extra reader threads force every element into SHARED mode (the
    // vector-clock spill path).
    rt::parallel_for_threads(R, 2, [&](std::uint32_t) {
      for (std::size_t i = 0; i < n; ++i) (void)a.load(i);
    });
  }
  const std::size_t after = g_alloc_bytes;
  return after - before;
}

template <Detector D>
void row(std::size_t n, bench::JsonReport& report) {
  const double excl =
      static_cast<double>(measure<D>(n, false)) / static_cast<double>(n);
  const double shared =
      static_cast<double>(measure<D>(n, true)) / static_cast<double>(n);
  std::printf("%-16s %12zu %14.1f %14.1f\n", D::kName,
              sizeof(typename D::VarState), excl, shared);
  report.add("fine_grained", D::kName,
             {{"sizeof_varstate", static_cast<double>(sizeof(typename D::VarState))},
              {"bytes_per_elem_exclusive", excl},
              {"bytes_per_elem_shared", shared}});
}

/// Packed-cell shadow bytes per target word: page allocations while one
/// thread writes every word of an n-word buffer (epoch-only: nothing
/// spills), then while two extra readers force every word read-shared
/// (every cell escalates and spills a VarState). The space's fixed
/// 512 KiB page directory is excluded - like a page table, it is a
/// one-time cost amortized over the whole address space.
template <Detector D>
void packed_row(std::size_t n, double inline_excl_bpw,
                bench::JsonReport& report) {
  RaceCollector races;
  rt::Runtime<D> R{D(&races)};
  typename rt::Runtime<D>::MainScope scope(R);
  std::vector<std::uint64_t> buf(n, 0);
  auto& space = R.packed_space();
  const std::size_t before = g_alloc_bytes;
  for (std::uint64_t& w : buf) {
    space.template access<true>(R.tool(), R.self(), &w, sizeof(w));
  }
  const std::size_t epoch_only = g_alloc_bytes - before;
  rt::parallel_for_threads(R, 2, [&](std::uint32_t) {
    for (const std::uint64_t& w : buf) {
      space.template access<false>(R.tool(), R.self(), &w, sizeof(w));
    }
  });
  const std::size_t with_spills = g_alloc_bytes - before;
  const double excl = static_cast<double>(epoch_only) / static_cast<double>(n);
  const double shared =
      static_cast<double>(with_spills) / static_cast<double>(n);
  const double ratio = inline_excl_bpw > 0.0 ? inline_excl_bpw / excl : 0.0;
  std::printf("%-16s %12zu %14.1f %14.1f %10.1fx\n", D::kName,
              space.spilled(), excl, shared, ratio);
  report.add("packed_space", D::kName,
             {{"bytes_per_word_epoch_only", excl},
              {"bytes_per_word_read_shared", shared},
              {"spilled_words", static_cast<double>(space.spilled())},
              {"inline_vs_packed_exclusive_ratio", ratio}});
}

}  // namespace

template <Detector D>
void packed_vs_inline(std::size_t n, bench::JsonReport& report) {
  const double inline_excl =
      static_cast<double>(measure<D>(n, false)) / static_cast<double>(n);
  packed_row<D>(n, inline_excl, report);
}

int main() {
  constexpr std::size_t kN = 1 << 15;
  bench::JsonReport report("memory");
  report.context("elements", std::to_string(kN));
  std::printf("Shadow-memory footprint (%zu-element array, 8-byte payload)\n\n",
              kN);
  std::printf("%-16s %12s %14s %14s\n", "detector", "sizeof(VS)",
              "B/elem excl", "B/elem shared");
  row<rt::NullTool>(kN, report);
  row<VftV1>(kN, report);
  row<VftV15>(kN, report);
  row<VftV2>(kN, report);
  row<FtMutex>(kN, report);
  row<FtCas>(kN, report);
  row<Djit>(kN, report);

  std::printf("\nPacked-cell shadow (PackedShadowSpace pages; %zu words; "
              "spilled counted after the read-shared phase)\n\n", kN);
  std::printf("%-16s %12s %14s %14s %10s\n", "detector", "spilled",
              "B/w epoch", "B/w shared", "vs inline");
  packed_vs_inline<VftV1>(kN, report);
  packed_vs_inline<VftV15>(kN, report);
  packed_vs_inline<VftV2>(kN, report);
  packed_vs_inline<FtMutex>(kN, report);
  packed_vs_inline<FtCas>(kN, report);
  packed_vs_inline<Djit>(kN, report);

  std::printf("\nThreadState: %zu B, LockState: %zu B, VectorClock inline "
              "capacity: %u epochs (%zu B)\n",
              sizeof(ThreadState), sizeof(LockState), VectorClock::kInline,
              sizeof(VectorClock));

  std::printf("\ncontext: 8 bytes of target data cost ~2 VarState pointers "
              "of shadow in fine-grained mode - the memory pressure that "
              "motivates the compression line of work. The packed cell cuts "
              "the epoch-only cost to one 16 B page slot per word and defers "
              "the VarState until a word actually goes read-shared.\n");
  report.write("BENCH_memory.json");
  return 0;
}
