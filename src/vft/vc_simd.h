// SIMD kernels for the vector-clock inner loops (leq / join / copy).
//
// Why raw 32-bit compares are correct: every clock this repo stores obeys
// the well-formedness invariant tid(V[t]) == t, so two clocks' slot-t
// epochs always carry the same tid in the top kTidBits bits. For epochs
// with equal tids,
//
//   leq(a, b)  =  bits(a) <= bits(b)   (unsigned)
//   max(a, b)  =  from_bits(max(bits(a), bits(b)))
//
// and the SHARED sentinel never appears inside a VectorClock (set()
// asserts it away). That makes the per-slot loops of VectorClock::leq/
// join/copy element-wise unsigned u32 operations with no cross-lane
// dependencies - exactly the shape SSE2/AVX2 eat: 4 or 8 slots per
// instruction instead of one compare-and-branch per slot.
//
// Dispatch: a single resolution point picks the widest ISA the CPU is
// able to run; the per-ISA entry points stay exported so the differential
// test (tests/vector_clock_simd_test.cpp) and bench_hotpath can pit every
// variant against the scalar reference on the same inputs. SSE2 is the
// x86-64 baseline; the AVX2 bodies are compiled with a function-level
// target attribute, so a plain -O2 build still contains them and enables
// them at runtime via cpuid. Non-x86 builds fall back to scalar.
//
// The kernels operate on raw std::uint32_t arrays (the bit-carrier of
// Epoch): callers reinterpret their Epoch storage, which static_asserts
// in vector_clock.h guarantee is layout-identical.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vft::simd {

enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2 };

/// The ISA the dispatched kernels below actually run (the cpuid probe's
/// pick).
Isa active_isa();

const char* isa_name(Isa isa);

/// True when `isa`'s kernels can run on this machine (compile target and
/// cpuid both permit it).
bool isa_available(Isa isa);

// --- Dispatched kernels (resolved once, then direct calls) -----------------

/// all i < n: a[i] <= b[i], unsigned.
bool leq_all(const std::uint32_t* a, const std::uint32_t* b, std::size_t n);

/// dst[i] := max(dst[i], src[i]), unsigned, for i < n.
void join_max(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);

/// dst[0, n) := src[0, n) (memcpy; here so all three hot loops share the
/// one dispatch surface and the differential test covers them uniformly).
void copy_words(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);

/// all i < n: (a[i] & mask) == 0. Used for the leq tail ("components past
/// the other clock's length must be at bottom", mask = the clock bits).
bool all_masked_zero(const std::uint32_t* a, std::size_t n, std::uint32_t mask);

// --- Packed-cell range kernels ---------------------------------------------
//
// Range interposition (memcpy/memset/str* wrappers) resolves whole runs of
// packed shadow cells at once: count the leading cells of `cells[0, n)`
// for which the cell contract's same-epoch verdict (vft_cell_same_epoch in
// vft/packed_cell_bits.h, the one the inline fast path runs) holds for
// this thread's epoch. The SIMD bodies check 2 (SSE2) or 8 (AVX2) cells
// per iteration with plain vector loads; a failed block is re-resolved
// with the scalar kernel's atomic acquire loads, so the returned prefix
// is always exact. A torn racy read can
// only shorten the prefix (the word then takes the scalar spill-out),
// never extend it past a non-matching cell.
//
// Under ThreadSanitizer builds the dispatcher pins these to the scalar
// variant: raw vector loads over the std::atomic cell array would be
// flagged even though the verdict tolerates tearing.

std::size_t cells_match_read_prefix(const std::uint64_t* cells, std::size_t n,
                                    std::uint32_t epoch_bits);
std::size_t cells_match_write_prefix(const std::uint64_t* cells, std::size_t n,
                                     std::uint32_t epoch_bits);

// --- Per-ISA entry points (testing / benchmarking) -------------------------
// Calling an entry point whose ISA isa_available() rejects is undefined
// (illegal-instruction trap); guard with isa_available first.

bool leq_all_scalar(const std::uint32_t* a, const std::uint32_t* b, std::size_t n);
void join_max_scalar(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
bool all_masked_zero_scalar(const std::uint32_t* a, std::size_t n, std::uint32_t mask);

bool leq_all_sse2(const std::uint32_t* a, const std::uint32_t* b, std::size_t n);
void join_max_sse2(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
bool all_masked_zero_sse2(const std::uint32_t* a, std::size_t n, std::uint32_t mask);

bool leq_all_avx2(const std::uint32_t* a, const std::uint32_t* b, std::size_t n);
void join_max_avx2(std::uint32_t* dst, const std::uint32_t* src, std::size_t n);
bool all_masked_zero_avx2(const std::uint32_t* a, std::size_t n, std::uint32_t mask);

std::size_t cells_match_read_prefix_scalar(const std::uint64_t* cells,
                                           std::size_t n,
                                           std::uint32_t epoch_bits);
std::size_t cells_match_write_prefix_scalar(const std::uint64_t* cells,
                                            std::size_t n,
                                            std::uint32_t epoch_bits);
std::size_t cells_match_read_prefix_sse2(const std::uint64_t* cells,
                                         std::size_t n,
                                         std::uint32_t epoch_bits);
std::size_t cells_match_write_prefix_sse2(const std::uint64_t* cells,
                                          std::size_t n,
                                          std::uint32_t epoch_bits);
std::size_t cells_match_read_prefix_avx2(const std::uint64_t* cells,
                                         std::size_t n,
                                         std::uint32_t epoch_bits);
std::size_t cells_match_write_prefix_avx2(const std::uint64_t* cells,
                                          std::size_t n,
                                          std::uint32_t epoch_bits);

}  // namespace vft::simd
