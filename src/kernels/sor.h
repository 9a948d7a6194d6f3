// sor: JavaGrande red-black successive over-relaxation analogue.
//
// Five-point stencil relaxation on a G x G grid, row bands per worker,
// barrier between the red and black half-sweeps. Band-interior cells are
// exclusive to their owner; band-boundary rows are read by the neighbor
// worker each half-sweep, so a modest fraction of accesses is read-shared.
// This access profile gives the mid-table overheads of the real sor.
//
// Validation: the checksum must match an uninstrumented sequential SOR
// with the identical update order (red-black is order-independent within
// a color, so sequential and parallel results agree bit-for-bit).
#pragma once

#include <vector>

#include "kernels/kernel.h"

namespace vft::kernels {

template <Detector D>
KernelResult sor(rt::Runtime<D>& R, const KernelConfig& cfg) {
  const std::size_t g = 128;
  const std::size_t iters = 4 * cfg.scale;
  const double omega = 1.25;

  // Ported to the address-keyed shadow API: cfg.shadow selects where the
  // grid's element shadow lives (inline VarStates or the two-level packed
  // space). Elements are 8-byte doubles, so even the word-granular packed
  // space keeps one shadow word per cell and the race verdict is
  // identical across backends.
  rt::Array<double, D> grid = make_shadowed_array<double>(R, cfg, g * g);
  rt::Barrier<D> barrier(R, cfg.threads);

  Rng rng(cfg.seed);
  std::vector<double> ref(g * g);
  for (std::size_t i = 0; i < g * g; ++i) {
    const double v = rng.next_double();
    grid.store(i, v);
    ref[i] = v;
  }

  auto relax_cell = [omega](double center, double up, double down, double left,
                            double right) {
    return center + omega * 0.25 * (up + down + left + right - 4.0 * center);
  };

  rt::parallel_for_threads(R, cfg.threads, [&](std::uint32_t w) {
    const Slice rows = slice_of(g - 2, w, cfg.threads);  // interior rows
    for (std::size_t it = 0; it < iters; ++it) {
      for (int color = 0; color < 2; ++color) {
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
          const std::size_t i = r + 1;
          for (std::size_t j = 1 + ((i + static_cast<std::size_t>(color)) % 2);
               j < g - 1; j += 2) {
            const double v = relax_cell(
                grid.load(i * g + j), grid.load((i - 1) * g + j),
                grid.load((i + 1) * g + j), grid.load(i * g + j - 1),
                grid.load(i * g + j + 1));
            grid.store(i * g + j, v);
          }
        }
        barrier.arrive_and_wait();
      }
    }
  });

  double checksum = 0.0;
  for (std::size_t i = 0; i < g * g; ++i) checksum += grid.raw(i);
  if (!cfg.validate) return KernelResult{checksum, true};

  // Uninstrumented sequential reference with the same sweep structure.
  for (std::size_t it = 0; it < iters; ++it) {
    for (int color = 0; color < 2; ++color) {
      for (std::size_t i = 1; i < g - 1; ++i) {
        for (std::size_t j = 1 + ((i + static_cast<std::size_t>(color)) % 2);
             j < g - 1; j += 2) {
          ref[i * g + j] = relax_cell(ref[i * g + j], ref[(i - 1) * g + j],
                                      ref[(i + 1) * g + j], ref[i * g + j - 1],
                                      ref[i * g + j + 1]);
        }
      }
    }
  }

  bool valid = true;
  for (std::size_t i = 0; i < g * g; ++i) {
    if (grid.raw(i) != ref[i]) valid = false;
  }
  return KernelResult{checksum, valid};
}

}  // namespace vft::kernels
