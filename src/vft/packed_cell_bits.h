/* The packed shadow cell's bit-level contract, stated once.
 *
 * Every layer that reads a cell word directly - the header-inlined ABI
 * try-functions (abi/vft_abi_inline.h), PackedCell (vft/packed_cell.h),
 * the range scan's prefix kernels (vft/vc_simd.cpp) and the shadow
 * space's geometry (runtime/shadow_space.h) - calls the definitions
 * below, so the schedule explorer, which drives PackedCell, checks the
 * same verdict the inline path runs.
 *
 * Geometry: one cell per aligned 8-byte word of target memory, 512 cells
 * per shadow page, so a page spans 4 KiB of target memory.
 *
 * Encoding: R epoch in the high 32 bits, W epoch in the low 32 (the
 * FT-CAS packing). An epoch-mode cell never holds Epoch::shared()
 * (all-ones) in R - read sharing escalates first - so an all-ones R half
 * marks the two sentinels, told apart by their W half:
 *
 *   ESCALATING  R = all-ones, W = 0   spill in progress
 *   ESCALATED   R = all-ones, W = 1   terminal: the word lives in a VarState
 *
 * Plain C, and constexpr under C++, so the shadow space and the SIMD
 * kernels can static_assert against these constants.
 */
#ifndef VFT_VFT_PACKED_CELL_BITS_H_
#define VFT_VFT_PACKED_CELL_BITS_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
#define VFT_CELL_FN static inline constexpr
#else
#define VFT_CELL_FN static inline
#endif

#define VFT_CELL_GRANULARITY_LOG2 3    /* bytes per cell: one 8-byte word */
#define VFT_CELL_SLOTS_PER_PAGE_LOG2 9 /* cells per shadow page: 512 */

#define VFT_CELL_SENTINEL_R 0xFFFFFFFFu /* R half of both sentinels */
#define VFT_CELL_ESCALATING ((uint64_t)VFT_CELL_SENTINEL_R << 32)
#define VFT_CELL_ESCALATED (VFT_CELL_ESCALATING | 1u)

/* The first target byte of the shadow page covering `a`. */
VFT_CELL_FN uintptr_t vft_cell_page_base(uintptr_t a) {
  return a & ~(((uintptr_t)1 << (VFT_CELL_GRANULARITY_LOG2 +
                                 VFT_CELL_SLOTS_PER_PAGE_LOG2)) - 1);
}

/* The index of the cell covering `a` within its page. */
VFT_CELL_FN size_t vft_cell_slot(uintptr_t a) {
  return (size_t)((a >> VFT_CELL_GRANULARITY_LOG2) &
                  (((uintptr_t)1 << VFT_CELL_SLOTS_PER_PAGE_LOG2) - 1));
}

/* True when [a, a + size) lies inside one cell's word; a straddling
 * access covers two cells and takes the range scan. */
VFT_CELL_FN int vft_cell_one_word(uintptr_t a, size_t size) {
  return (a & (((uintptr_t)1 << VFT_CELL_GRANULARITY_LOG2) - 1)) + size <=
         ((uintptr_t)1 << VFT_CELL_GRANULARITY_LOG2);
}

VFT_CELL_FN uint64_t vft_cell_pack(uint32_t r, uint32_t w) {
  return ((uint64_t)r << 32) | w;
}
VFT_CELL_FN uint32_t vft_cell_r(uint64_t c) { return (uint32_t)(c >> 32); }
VFT_CELL_FN uint32_t vft_cell_w(uint64_t c) { return (uint32_t)c; }

/* ESCALATING or ESCALATED: the cell is out of epoch mode. */
VFT_CELL_FN int vft_cell_is_sentinel(uint64_t cell) {
  return vft_cell_r(cell) == VFT_CELL_SENTINEL_R;
}

/* [Read Same Epoch] / [Write Same Epoch] for a thread whose current
 * epoch is `e`: the access changes nothing and is race-free.
 *
 *   read:  R == e. A live epoch is never all-ones (the clock caps at
 *          2^24-2 and the tid at 254), so the compare alone excludes
 *          the sentinels.
 *   write: W == e and the cell is no sentinel. The second conjunct is
 *          required: ESCALATED's W half is 1, which is epoch 0@1.
 *
 * `is_write` is a constant at every call site, so the branch folds. */
VFT_CELL_FN int vft_cell_same_epoch(uint64_t cell, uint32_t e, int is_write) {
  return is_write ? vft_cell_w(cell) == e && !vft_cell_is_sentinel(cell)
                  : vft_cell_r(cell) == e;
}

#endif /* VFT_VFT_PACKED_CELL_BITS_H_ */
