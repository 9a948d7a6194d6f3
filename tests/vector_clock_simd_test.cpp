// Randomized differential tests for the SIMD vector-clock kernels
// (src/vft/vc_simd.h): every ISA variant the machine can run must agree
// with the scalar reference on identical inputs, across sizes straddling
// the vector widths and VectorClock::kInline, and across clock values at
// the 24-bit packing boundary. The VectorClock-level operations (leq /
// join / copy) are additionally checked against a naive get()-based model,
// so the epoch_bits() reinterpretation and the inline/heap split are
// covered end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "vft/vc_simd.h"
#include "vft/vector_clock.h"

namespace vft {
namespace {

constexpr std::uint32_t kClockMask =
    (std::uint32_t{1} << Epoch::kClockBits) - 1;

const simd::Isa kAllIsas[] = {simd::Isa::kScalar, simd::Isa::kSse2,
                              simd::Isa::kAvx2};

struct Kernels {
  bool (*leq)(const std::uint32_t*, const std::uint32_t*, std::size_t);
  void (*join)(std::uint32_t*, const std::uint32_t*, std::size_t);
  bool (*mask)(const std::uint32_t*, std::size_t, std::uint32_t);
};

Kernels kernels_for(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kSse2:
      return {simd::leq_all_sse2, simd::join_max_sse2,
              simd::all_masked_zero_sse2};
    case simd::Isa::kAvx2:
      return {simd::leq_all_avx2, simd::join_max_avx2,
              simd::all_masked_zero_avx2};
    default:
      return {simd::leq_all_scalar, simd::join_max_scalar,
              simd::all_masked_zero_scalar};
  }
}

// Sizes crossing the AVX2 width (8), the SSE2 width (4), kInline (8), and
// assorted tails.
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,   9,
                              12, 15, 16, 17, 31, 32, 33, 63,  64,
                              65, 96, 100, 127, 128, 129, 255, 256, 257};

/// Random well-formed slot array: tid(V[i]) == i (mod the 8-bit packing),
/// clocks drawn across the full 24-bit range including the kMaxClock edge.
std::vector<std::uint32_t> random_slots(std::mt19937& rng, std::size_t n) {
  std::uniform_int_distribution<std::uint32_t> pick(0, 5);
  std::uniform_int_distribution<std::uint32_t> any_clock(0, kClockMask);
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t c;
    switch (pick(rng)) {
      case 0: c = 0; break;                    // bottom
      case 1: c = Epoch::kMaxClock; break;     // overflow boundary
      case 2: c = Epoch::kMaxClock - 1; break;
      case 3: c = 1; break;
      default: c = any_clock(rng); break;
    }
    v[i] = (static_cast<std::uint32_t>(i & 0xff) << Epoch::kClockBits) | c;
  }
  return v;
}

TEST(VcSimdKernels, DifferentialAgainstScalar) {
  std::mt19937 rng(20260806);
  for (const simd::Isa isa : kAllIsas) {
    if (!simd::isa_available(isa)) {
      GTEST_LOG_(INFO) << simd::isa_name(isa) << " unavailable, skipped";
      continue;
    }
    const Kernels k = kernels_for(isa);
    for (const std::size_t n : kSizes) {
      for (int round = 0; round < 64; ++round) {
        const auto a = random_slots(rng, n);
        auto b = random_slots(rng, n);
        // Half the rounds: force b >= a slot-wise so the "true" outcome
        // (every slot scanned) is exercised, not just early exits.
        if (round % 2 == 0) {
          for (std::size_t i = 0; i < n; ++i) b[i] = std::max(a[i], b[i]);
        }
        ASSERT_EQ(k.leq(a.data(), b.data(), n),
                  simd::leq_all_scalar(a.data(), b.data(), n))
            << simd::isa_name(isa) << " leq n=" << n << " round=" << round;

        auto dst_isa = a;
        auto dst_ref = a;
        k.join(dst_isa.data(), b.data(), n);
        simd::join_max_scalar(dst_ref.data(), b.data(), n);
        ASSERT_EQ(dst_isa, dst_ref)
            << simd::isa_name(isa) << " join n=" << n << " round=" << round;

        // Mask check over clock bits; half the rounds all-bottom (true).
        auto m = a;
        if (round % 2 == 0) {
          for (auto& w : m) w &= ~kClockMask;
        }
        ASSERT_EQ(k.mask(m.data(), n, kClockMask),
                  simd::all_masked_zero_scalar(m.data(), n, kClockMask))
            << simd::isa_name(isa) << " mask n=" << n << " round=" << round;
      }
    }
  }
}

TEST(VcSimdKernels, SingleSlotViolationDetected) {
  std::mt19937 rng(7);
  for (const simd::Isa isa : kAllIsas) {
    if (!simd::isa_available(isa)) continue;
    const Kernels k = kernels_for(isa);
    for (const std::size_t n : kSizes) {
      if (n == 0) continue;
      for (int round = 0; round < 16; ++round) {
        const auto a = random_slots(rng, n);
        auto b = a;  // equal: leq holds
        ASSERT_TRUE(k.leq(a.data(), b.data(), n));
        // Lower exactly one slot of b below a (if it has clock bits).
        const std::size_t at =
            std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
        if ((b[at] & kClockMask) == 0) continue;
        b[at] -= 1;
        ASSERT_FALSE(k.leq(a.data(), b.data(), n))
            << simd::isa_name(isa) << " n=" << n << " violation at " << at;
      }
    }
  }
}

// --- VectorClock-level differential (exercises epoch_bits + dispatch) ------

/// Naive reference via the scalar Epoch algebra and get().
bool ref_leq(const VectorClock& a, const VectorClock& b) {
  const std::uint32_t n = std::max(a.size(), b.size());
  for (Tid i = 0; i < n; ++i) {
    if (!leq(a.get(i), b.get(i))) return false;
  }
  return true;
}

VectorClock random_clock(std::mt19937& rng, std::uint32_t n) {
  VectorClock v;
  std::uniform_int_distribution<std::uint32_t> pick(0, 4);
  std::uniform_int_distribution<Clock> any_clock(0, Epoch::kMaxClock);
  for (Tid t = 0; t < n; ++t) {
    Clock c;
    switch (pick(rng)) {
      case 0: c = 0; break;
      case 1: c = Epoch::kMaxClock; break;
      default: c = any_clock(rng); break;
    }
    v.set(t, Epoch::make(t, c));
  }
  return v;
}

TEST(VectorClockSimd, LeqJoinCopyMatchScalarModel) {
  std::mt19937 rng(42);
  // Sizes straddling kInline == 8 and the SIMD widths, including
  // asymmetric pairs (shorter vs longer in both directions).
  const std::uint32_t sizes[] = {0, 1, 4, 7, 8, 9, 12, 16, 17, 33, 64, 100};
  for (const std::uint32_t na : sizes) {
    for (const std::uint32_t nb : sizes) {
      for (int round = 0; round < 24; ++round) {
        VectorClock a = random_clock(rng, na);
        VectorClock b = random_clock(rng, nb);
        if (round % 3 == 0) {
          // Force a <= b on the common prefix so the full-scan outcome
          // (plus the beyond-length bottom check) is common.
          VectorClock joined = b;
          joined.join(a);
          b = std::move(joined);
        }
        ASSERT_EQ(a.leq(b), ref_leq(a, b))
            << "na=" << na << " nb=" << nb << " round=" << round;

        // join: result slot-wise max, checked via get() over both ranges.
        VectorClock j = a;
        j.join(b);
        const std::uint32_t n = std::max(na, nb);
        for (Tid t = 0; t < n; ++t) {
          ASSERT_EQ(j.get(t), max(a.get(t), b.get(t)))
              << "join slot " << t << " na=" << na << " nb=" << nb;
        }
        ASSERT_TRUE(a.leq(j));
        ASSERT_TRUE(b.leq(j));

        // copy: exact equality including bottom-fill past source length.
        VectorClock c = random_clock(rng, na);
        c.copy(b);
        ASSERT_TRUE(c == b) << "copy na=" << na << " nb=" << nb;
      }
    }
  }
}

// --- Packed-cell prefix kernels --------------------------------------------
//
// Every ISA variant must return exactly the scalar reference's prefix
// length on identical cells, across lengths straddling the 2/8-cell
// vector blocks, for epochs on both sides of the write kernel's hoisted
// sentinel compare (epoch_bits 1 collides with ESCALATED's W half = 1;
// every epoch > 1 takes the lean loop), and with sentinel cells planted
// at block-interior offsets.

struct CellKernels {
  std::size_t (*read)(const std::uint64_t*, std::size_t, std::uint32_t);
  std::size_t (*write)(const std::uint64_t*, std::size_t, std::uint32_t);
};

CellKernels cell_kernels_for(simd::Isa isa) {
  switch (isa) {
    case simd::Isa::kSse2:
      return {simd::cells_match_read_prefix_sse2,
              simd::cells_match_write_prefix_sse2};
    case simd::Isa::kAvx2:
      return {simd::cells_match_read_prefix_avx2,
              simd::cells_match_write_prefix_avx2};
    default:
      return {simd::cells_match_read_prefix_scalar,
              simd::cells_match_write_prefix_scalar};
  }
}

constexpr std::uint64_t kEscalatingCell = 0xFFFFFFFF00000000ull;
constexpr std::uint64_t kEscalatedCell = 0xFFFFFFFF00000001ull;

TEST(VectorClockSimd, CellPrefixKernelsMatchScalarReference) {
  std::mt19937 rng(11);
  // Epoch 1 = tid 0 at clock 1 (the sentinel-collision epoch); 2 = the
  // smallest lean-loop epoch; the third is an arbitrary high tid@clock.
  const std::uint32_t epochs[] = {1u, 2u, (7u << Epoch::kClockBits) | 9001u};
  for (const std::uint32_t e : epochs) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{15},
          std::size_t{16}, std::size_t{17}, std::size_t{64},
          std::size_t{513}}) {
      for (int variant = 0; variant < 8; ++variant) {
        std::vector<std::uint64_t> cells(n, 0);
        // Baseline: every cell a same-epoch hit for both kernels.
        for (auto& c : cells) {
          c = (static_cast<std::uint64_t>(e) << 32) | e;
        }
        // Variants plant a breaker at a random position: a different
        // epoch, a sentinel, or a cell matching only one half.
        if (variant > 0 && n > 0) {
          std::uniform_int_distribution<std::size_t> pos(0, n - 1);
          const std::size_t at = pos(rng);
          switch (variant % 4) {
            case 0: cells[at] = kEscalatingCell; break;
            case 1: cells[at] = kEscalatedCell; break;
            case 2:  // W matches, R stale: read breaker only.
              cells[at] = (static_cast<std::uint64_t>(e + 1) << 32) | e;
              break;
            case 3:  // R matches, W stale: write breaker only.
              cells[at] =
                  (static_cast<std::uint64_t>(e) << 32) | (e + 1);
              break;
          }
        }
        const std::size_t ref_r =
            simd::cells_match_read_prefix_scalar(cells.data(), n, e);
        const std::size_t ref_w =
            simd::cells_match_write_prefix_scalar(cells.data(), n, e);
        for (const simd::Isa isa : kAllIsas) {
          if (!simd::isa_available(isa)) continue;
          const CellKernels k = cell_kernels_for(isa);
          EXPECT_EQ(k.read(cells.data(), n, e), ref_r)
              << simd::isa_name(isa) << " read e=" << e << " n=" << n
              << " variant=" << variant;
          EXPECT_EQ(k.write(cells.data(), n, e), ref_w)
              << simd::isa_name(isa) << " write e=" << e << " n=" << n
              << " variant=" << variant;
        }
      }
    }
  }
}

TEST(VectorClockSimd, WritePrefixRejectsEscalatedAtCollisionEpoch) {
  // The exact collision the hoist must not break: epoch_bits == 1 and a
  // cell holding ESCALATED (W half == 1). The W-lane compare alone would
  // accept it; the guarded loop must stop there.
  std::vector<std::uint64_t> cells(16, (std::uint64_t{1} << 32) | 1u);
  cells[9] = kEscalatedCell;
  for (const simd::Isa isa : kAllIsas) {
    if (!simd::isa_available(isa)) continue;
    const CellKernels k = cell_kernels_for(isa);
    EXPECT_EQ(k.write(cells.data(), cells.size(), 1u), 9u)
        << simd::isa_name(isa);
  }
}

TEST(VectorClockSimd, ActiveIsaIsAvailable) {
  EXPECT_TRUE(simd::isa_available(simd::active_isa()));
  // Kernel sanity at the dispatch point itself.
  const std::uint32_t a[3] = {1, 2, 3};
  const std::uint32_t b[3] = {1, 2, 4};
  EXPECT_TRUE(simd::leq_all(a, b, 3));
  EXPECT_FALSE(simd::leq_all(b, a, 3));
}

}  // namespace
}  // namespace vft
