#include "vft/vc_simd.h"

#include <cstring>

#include "vft/packed_cell_bits.h"

#if defined(__x86_64__) || defined(__i386__)
#define VFT_SIMD_X86 1
#include <immintrin.h>
#else
#define VFT_SIMD_X86 0
#endif

namespace vft::simd {

// --- Scalar reference -------------------------------------------------------

bool leq_all_scalar(const std::uint32_t* a, const std::uint32_t* b,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

void join_max_scalar(std::uint32_t* dst, const std::uint32_t* src,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (src[i] > dst[i]) dst[i] = src[i];
  }
}

bool all_masked_zero_scalar(const std::uint32_t* a, std::size_t n,
                            std::uint32_t mask) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & mask) != 0) return false;
  }
  return true;
}

// The scalar cell kernels use the same acquire loads PackedCell::load_bits
// performs and the same verdict (vft_cell_same_epoch), so they are the
// exactness reference (and the TSan-safe dispatch target) for the vector
// bodies below.
std::size_t cells_match_read_prefix_scalar(const std::uint64_t* cells,
                                           std::size_t n,
                                           std::uint32_t epoch_bits) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = __atomic_load_n(&cells[i], __ATOMIC_ACQUIRE);
    if (!vft_cell_same_epoch(c, epoch_bits, /*is_write=*/0)) return i;
  }
  return n;
}

std::size_t cells_match_write_prefix_scalar(const std::uint64_t* cells,
                                            std::size_t n,
                                            std::uint32_t epoch_bits) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = __atomic_load_n(&cells[i], __ATOMIC_ACQUIRE);
    if (!vft_cell_same_epoch(c, epoch_bits, /*is_write=*/1)) return i;
  }
  return n;
}

#if VFT_SIMD_X86

// --- SSE2 (x86-64 baseline) -------------------------------------------------
//
// SSE2 has no unsigned 32-bit compare or max; the standard sign-flip trick
// (xor with 0x80000000) turns unsigned order into signed order, for which
// pcmpgtd exists.

namespace {
inline __m128i flip_sign128(__m128i v) {
  return _mm_xor_si128(v, _mm_set1_epi32(static_cast<int>(0x80000000u)));
}
}  // namespace

bool leq_all_sse2(const std::uint32_t* a, const std::uint32_t* b,
                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // a > b (unsigned) in any lane -> violation.
    const __m128i gt = _mm_cmpgt_epi32(flip_sign128(va), flip_sign128(vb));
    if (_mm_movemask_epi8(gt) != 0) return false;
  }
  return leq_all_scalar(a + i, b + i, n - i);
}

void join_max_sse2(std::uint32_t* dst, const std::uint32_t* src,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vd =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i vs =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d_gt = _mm_cmpgt_epi32(flip_sign128(vd), flip_sign128(vs));
    // max = (dst & (dst>src)) | (src & ~(dst>src)).
    const __m128i mx =
        _mm_or_si128(_mm_and_si128(d_gt, vd), _mm_andnot_si128(d_gt, vs));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), mx);
  }
  join_max_scalar(dst + i, src + i, n - i);
}

bool all_masked_zero_sse2(const std::uint32_t* a, std::size_t n,
                          std::uint32_t mask) {
  const __m128i vm = _mm_set1_epi32(static_cast<int>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i hit = _mm_cmpeq_epi32(_mm_and_si128(va, vm),
                                        _mm_setzero_si128());
    if (_mm_movemask_epi8(hit) != 0xFFFF) return false;
  }
  return all_masked_zero_scalar(a + i, n - i, mask);
}

// Packed-cell prefixes, 2 cells (one xmm) per iteration. Each 64-bit cell
// holds {R = high dword, W = low dword}; pcmpeqd gives per-dword equality,
// and movemask_epi8 exposes it as 4 bits per dword: bits 0xF0F0 select the
// R halves of both cells, 0x0F0F the W halves. The vector loads are plain
// (non-atomic) on purpose - a failed block is re-resolved with the scalar
// kernel's acquire loads, so tearing can only shorten the returned prefix
// (see vc_simd.h).
//
// The write kernels find the sentinels by an all-ones R lane, and hoist
// that compare out of the loop for epoch_bits > 1: a W-lane match then
// excludes both sentinels on its own, which holds while neither sentinel's
// W half exceeds 1 (checked below on the two halves OR-ed).
static_assert(VFT_CELL_SENTINEL_R == ~0u &&
                  vft_cell_w(VFT_CELL_ESCALATING | VFT_CELL_ESCALATED) <= 1,
              "the write kernels' sentinel compare and its hoist");

std::size_t cells_match_read_prefix_sse2(const std::uint64_t* cells,
                                         std::size_t n,
                                         std::uint32_t epoch_bits) {
  const __m128i ve = _mm_set1_epi32(static_cast<int>(epoch_bits));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i));
    const __m128i eq = _mm_cmpeq_epi32(v, ve);
    if ((_mm_movemask_epi8(eq) & 0xF0F0) != 0xF0F0) {
      return i + cells_match_read_prefix_scalar(cells + i, 2, epoch_bits);
    }
  }
  return i + cells_match_read_prefix_scalar(cells + i, n - i, epoch_bits);
}

std::size_t cells_match_write_prefix_sse2(const std::uint64_t* cells,
                                          std::size_t n,
                                          std::uint32_t epoch_bits) {
  const __m128i ve = _mm_set1_epi32(static_cast<int>(epoch_bits));
  std::size_t i = 0;
  if (epoch_bits > 1) {
    // The sentinel family is {ESCALATING: W = 0, ESCALATED: W = 1}, and a
    // live W half can only collide with it when the epoch itself is 0 or
    // 1 (tid 0 in its first clocks). For every other epoch the W-lane
    // match alone excludes sentinels, so the per-block sentinel compare
    // hoists out of the loop entirely.
    for (; i + 2 <= n; i += 2) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i));
      const int eq = _mm_movemask_epi8(_mm_cmpeq_epi32(v, ve));
      if ((eq & 0x0F0F) != 0x0F0F) {
        return i + cells_match_write_prefix_scalar(cells + i, 2, epoch_bits);
      }
    }
    return i + cells_match_write_prefix_scalar(cells + i, n - i, epoch_bits);
  }
  const __m128i ones = _mm_set1_epi32(-1);
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i));
    const int eq = _mm_movemask_epi8(_mm_cmpeq_epi32(v, ve));
    // An R half of all-ones is the ESCALATING/ESCALATED sentinel family;
    // the epoch match on W alone would accept ESCALATED (W = 1).
    const int sent = _mm_movemask_epi8(_mm_cmpeq_epi32(v, ones));
    if ((eq & 0x0F0F) != 0x0F0F || (sent & 0xF0F0) != 0) {
      return i + cells_match_write_prefix_scalar(cells + i, 2, epoch_bits);
    }
  }
  return i + cells_match_write_prefix_scalar(cells + i, n - i, epoch_bits);
}

// --- AVX2 (compiled via target attribute, enabled by cpuid) -----------------
//
// Every exit that can lead to non-VEX SSE code runs _mm256_zeroupper()
// first. GCC inserts vzeroupper on plain returns but NOT on the sibcall
// (tail-jump) into the SSE2 helpers, and leq_all_sse2 executes a non-VEX
// movdqa before its length check: delegating with dirty ymm uppers makes
// that one instruction pay the full AVX->SSE state-transition penalty
// (measured ~135 ns per call on Skylake-SP - 40x the kernel itself).

__attribute__((target("avx2"))) bool leq_all_avx2(const std::uint32_t* a,
                                                  const std::uint32_t* b,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    // AVX2 has unsigned max: a <= b per-lane iff max(a, b) == b.
    const __m256i ok = _mm256_cmpeq_epi32(_mm256_max_epu32(va, vb), vb);
    if (_mm256_movemask_epi8(ok) != -1) {
      _mm256_zeroupper();
      return false;
    }
  }
  _mm256_zeroupper();
  return leq_all_sse2(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void join_max_avx2(std::uint32_t* dst,
                                                   const std::uint32_t* src,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_max_epu32(vd, vs));
  }
  _mm256_zeroupper();
  join_max_sse2(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) bool all_masked_zero_avx2(
    const std::uint32_t* a, std::size_t n, std::uint32_t mask) {
  const __m256i vm = _mm256_set1_epi32(static_cast<int>(mask));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    if (!_mm256_testz_si256(va, vm)) {
      _mm256_zeroupper();
      return false;
    }
  }
  _mm256_zeroupper();
  return all_masked_zero_sse2(a + i, n - i, mask);
}

// The AVX2 kernels check 8 cells (two ymm vectors) per iteration and fold
// the two per-vector equality masks into a single movemask with a vpand:
// an R-lane bit survives the AND only if the lane matched in BOTH vectors,
// so one branch covers the whole 8-cell block. On the race-free bulk-copy
// path this halves the per-cell loop overhead versus one movemask+branch
// per vector; a failed block is re-resolved scalar, which also pins down
// the exact prefix length the combined mask can't express.

__attribute__((target("avx2"))) std::size_t cells_match_read_prefix_avx2(
    const std::uint64_t* cells, std::size_t n, std::uint32_t epoch_bits) {
  const __m256i ve = _mm256_set1_epi32(static_cast<int>(epoch_bits));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(cells + i) + 512,
                 _MM_HINT_T0);
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i + 4));
    const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi32(v0, ve),
                                        _mm256_cmpeq_epi32(v1, ve));
    if ((_mm256_movemask_epi8(eq) & static_cast<int>(0xF0F0F0F0u)) !=
        static_cast<int>(0xF0F0F0F0u)) {
      _mm256_zeroupper();
      return i + cells_match_read_prefix_scalar(cells + i, 8, epoch_bits);
    }
  }
  _mm256_zeroupper();
  return i + cells_match_read_prefix_sse2(cells + i, n - i, epoch_bits);
}

__attribute__((target("avx2"))) std::size_t cells_match_write_prefix_avx2(
    const std::uint64_t* cells, std::size_t n, std::uint32_t epoch_bits) {
  const __m256i ve = _mm256_set1_epi32(static_cast<int>(epoch_bits));
  std::size_t i = 0;
  if (epoch_bits > 1) {
    // Sentinel compare hoisted (see the SSE2 kernel): W in {0, 1} marks
    // ESCALATING/ESCALATED, so for epoch_bits > 1 the W-lane match alone
    // excludes sentinels and the loop is as lean as the read kernel's.
    for (; i + 8 <= n; i += 8) {
      _mm_prefetch(reinterpret_cast<const char*>(cells + i) + 512,
                   _MM_HINT_T0);
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i + 4));
      const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi32(v0, ve),
                                          _mm256_cmpeq_epi32(v1, ve));
      if ((_mm256_movemask_epi8(eq) & 0x0F0F0F0F) != 0x0F0F0F0F) {
        _mm256_zeroupper();
        return i + cells_match_write_prefix_scalar(cells + i, 8, epoch_bits);
      }
    }
    _mm256_zeroupper();
    return i + cells_match_write_prefix_sse2(cells + i, n - i, epoch_bits);
  }
  const __m256i ones = _mm256_set1_epi32(-1);
  for (; i + 8 <= n; i += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(cells + i) + 512,
                 _MM_HINT_T0);
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i + 4));
    // W-epoch match must hold in both vectors (AND); the sentinel R half
    // must appear in neither (OR), since all-ones marks ESCALATING /
    // ESCALATED and the W-only epoch match would accept ESCALATED (W = 1).
    const int eq = _mm256_movemask_epi8(_mm256_and_si256(
        _mm256_cmpeq_epi32(v0, ve), _mm256_cmpeq_epi32(v1, ve)));
    const int sent = _mm256_movemask_epi8(_mm256_or_si256(
        _mm256_cmpeq_epi32(v0, ones), _mm256_cmpeq_epi32(v1, ones)));
    if ((eq & 0x0F0F0F0F) != 0x0F0F0F0F ||
        (sent & static_cast<int>(0xF0F0F0F0u)) != 0) {
      _mm256_zeroupper();
      return i + cells_match_write_prefix_scalar(cells + i, 8, epoch_bits);
    }
  }
  _mm256_zeroupper();
  return i + cells_match_write_prefix_sse2(cells + i, n - i, epoch_bits);
}

#else  // !VFT_SIMD_X86: the SSE2/AVX2 names alias the scalar reference.

bool leq_all_sse2(const std::uint32_t* a, const std::uint32_t* b,
                  std::size_t n) {
  return leq_all_scalar(a, b, n);
}
void join_max_sse2(std::uint32_t* dst, const std::uint32_t* src,
                   std::size_t n) {
  join_max_scalar(dst, src, n);
}
bool all_masked_zero_sse2(const std::uint32_t* a, std::size_t n,
                          std::uint32_t mask) {
  return all_masked_zero_scalar(a, n, mask);
}
bool leq_all_avx2(const std::uint32_t* a, const std::uint32_t* b,
                  std::size_t n) {
  return leq_all_scalar(a, b, n);
}
void join_max_avx2(std::uint32_t* dst, const std::uint32_t* src,
                   std::size_t n) {
  join_max_scalar(dst, src, n);
}
bool all_masked_zero_avx2(const std::uint32_t* a, std::size_t n,
                          std::uint32_t mask) {
  return all_masked_zero_scalar(a, n, mask);
}
std::size_t cells_match_read_prefix_sse2(const std::uint64_t* cells,
                                         std::size_t n,
                                         std::uint32_t epoch_bits) {
  return cells_match_read_prefix_scalar(cells, n, epoch_bits);
}
std::size_t cells_match_write_prefix_sse2(const std::uint64_t* cells,
                                          std::size_t n,
                                          std::uint32_t epoch_bits) {
  return cells_match_write_prefix_scalar(cells, n, epoch_bits);
}
std::size_t cells_match_read_prefix_avx2(const std::uint64_t* cells,
                                         std::size_t n,
                                         std::uint32_t epoch_bits) {
  return cells_match_read_prefix_scalar(cells, n, epoch_bits);
}
std::size_t cells_match_write_prefix_avx2(const std::uint64_t* cells,
                                          std::size_t n,
                                          std::uint32_t epoch_bits) {
  return cells_match_write_prefix_scalar(cells, n, epoch_bits);
}

#endif  // VFT_SIMD_X86

// --- Dispatch ---------------------------------------------------------------

namespace {

Isa probe_isa() {
#if VFT_SIMD_X86
  Isa best = __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
#else
  Isa best = Isa::kScalar;
#endif
  return best;
}

const Isa g_isa = probe_isa();

using LeqFn = bool (*)(const std::uint32_t*, const std::uint32_t*, std::size_t);
using JoinFn = void (*)(std::uint32_t*, const std::uint32_t*, std::size_t);
using MaskFn = bool (*)(const std::uint32_t*, std::size_t, std::uint32_t);

LeqFn pick_leq() {
  switch (g_isa) {
    case Isa::kAvx2: return &leq_all_avx2;
    case Isa::kSse2: return &leq_all_sse2;
    default: return &leq_all_scalar;
  }
}
JoinFn pick_join() {
  switch (g_isa) {
    case Isa::kAvx2: return &join_max_avx2;
    case Isa::kSse2: return &join_max_sse2;
    default: return &join_max_scalar;
  }
}
MaskFn pick_mask() {
  switch (g_isa) {
    case Isa::kAvx2: return &all_masked_zero_avx2;
    case Isa::kSse2: return &all_masked_zero_sse2;
    default: return &all_masked_zero_scalar;
  }
}

// The packed cells live in a std::atomic<uint64_t> array; the vector
// bodies read them with plain loads. That is by design (vc_simd.h), but
// TSan instruments the atomic array and would flag every vector load, so
// sanitized builds pin the cell kernels to the scalar acquire-load path.
#if defined(__SANITIZE_THREAD__)
#define VFT_SIMD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VFT_SIMD_TSAN 1
#endif
#endif
#ifndef VFT_SIMD_TSAN
#define VFT_SIMD_TSAN 0
#endif

using CellFn = std::size_t (*)(const std::uint64_t*, std::size_t,
                               std::uint32_t);

CellFn pick_cells_read() {
  if (VFT_SIMD_TSAN) return &cells_match_read_prefix_scalar;
  switch (g_isa) {
    case Isa::kAvx2: return &cells_match_read_prefix_avx2;
    case Isa::kSse2: return &cells_match_read_prefix_sse2;
    default: return &cells_match_read_prefix_scalar;
  }
}
CellFn pick_cells_write() {
  if (VFT_SIMD_TSAN) return &cells_match_write_prefix_scalar;
  switch (g_isa) {
    case Isa::kAvx2: return &cells_match_write_prefix_avx2;
    case Isa::kSse2: return &cells_match_write_prefix_sse2;
    default: return &cells_match_write_prefix_scalar;
  }
}

const LeqFn g_leq = pick_leq();
const JoinFn g_join = pick_join();
const MaskFn g_mask = pick_mask();
const CellFn g_cells_read = pick_cells_read();
const CellFn g_cells_write = pick_cells_write();

}  // namespace

Isa active_isa() { return g_isa; }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kSse2:
      return VFT_SIMD_X86 != 0;
    case Isa::kAvx2:
#if VFT_SIMD_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

bool leq_all(const std::uint32_t* a, const std::uint32_t* b, std::size_t n) {
  return g_leq(a, b, n);
}

void join_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  g_join(dst, src, n);
}

void copy_words(std::uint32_t* dst, const std::uint32_t* src, std::size_t n) {
  std::memcpy(dst, src, n * sizeof(std::uint32_t));
}

bool all_masked_zero(const std::uint32_t* a, std::size_t n,
                     std::uint32_t mask) {
  return g_mask(a, n, mask);
}

std::size_t cells_match_read_prefix(const std::uint64_t* cells, std::size_t n,
                                    std::uint32_t epoch_bits) {
  return g_cells_read(cells, n, epoch_bits);
}

std::size_t cells_match_write_prefix(const std::uint64_t* cells, std::size_t n,
                                     std::uint32_t epoch_bits) {
  return g_cells_write(cells, n, epoch_bits);
}

}  // namespace vft::simd
