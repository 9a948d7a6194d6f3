// lufact: JavaGrande LU-factorization analogue.
//
// In-place LU with partial pivoting over an instrumented n x n matrix,
// row-cyclic work distribution, one barrier phase per column: thread 0
// selects the pivot and swaps rows, all threads eliminate their rows.
// The pivot row is read-shared within each elimination phase; each
// eliminated row is written exclusively by its owner - a barrier-phased
// mix of read-shared and exclusive traffic, like the real lufact.
//
// Validation: solve A x = b with the computed factors and check the
// residual against the saved (uninstrumented) copy of A.
#pragma once

#include <vector>

#include "kernels/kernel.h"

namespace vft::kernels {

template <Detector D>
KernelResult lufact(rt::Runtime<D>& R, const KernelConfig& cfg) {
  const std::size_t n = 64 * cfg.scale + 32;
  // Ported to the address-keyed shadow API (see kernel.h). The matrix is
  // 8-byte doubles: one shadow word per element under every backend. piv
  // is 4-byte entries, so adjacent pivots share a shadow word under the
  // word-granular packed space - harmless here, since piv has a single
  // instrumented writer (worker 0) and is only raw-read afterwards.
  rt::Array<double, D> m = make_shadowed_array<double>(R, cfg, n * n);
  rt::Array<std::uint32_t, D> piv = make_shadowed_array<std::uint32_t>(R, cfg, n);
  rt::Barrier<D> barrier(R, cfg.threads);

  // Diagonally dominant random matrix (guarantees a well-conditioned LU).
  Rng rng(cfg.seed);
  std::vector<double> a_copy(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = rng.next_double() - 0.5;
      m.store(i * n + j, v);
      a_copy[i * n + j] = v;
      row_sum += std::abs(v);
    }
    const double d = a_copy[i * n + i] + row_sum + 1.0;
    m.store(i * n + i, d);
    a_copy[i * n + i] = d;
  }

  rt::parallel_for_threads(R, cfg.threads, [&](std::uint32_t w) {
    for (std::size_t k = 0; k < n; ++k) {
      if (w == 0) {
        // Pivot selection + row swap, single-threaded phase.
        std::size_t p = k;
        double best = std::abs(m.load(k * n + k));
        for (std::size_t i = k + 1; i < n; ++i) {
          const double v = std::abs(m.load(i * n + k));
          if (v > best) {
            best = v;
            p = i;
          }
        }
        piv.store(k, static_cast<std::uint32_t>(p));
        if (p != k) {
          for (std::size_t j = 0; j < n; ++j) {
            const double tmp = m.load(k * n + j);
            m.store(k * n + j, m.load(p * n + j));
            m.store(p * n + j, tmp);
          }
        }
      }
      barrier.arrive_and_wait();  // pivot row published to all workers
      const double pivot = m.load(k * n + k);
      // Row-cyclic elimination: worker w owns rows i = k+1.. with
      // i % threads == w.
      for (std::size_t i = k + 1; i < n; ++i) {
        if (i % cfg.threads != w) continue;
        const double factor = m.load(i * n + k) / pivot;
        m.store(i * n + k, factor);  // store L entry in place
        for (std::size_t j = k + 1; j < n; ++j) {
          m.store(i * n + j, m.load(i * n + j) - factor * m.load(k * n + j));
        }
      }
      barrier.arrive_and_wait();  // eliminated rows published
    }
  });

  // Solve A x = b via the factors (sequential, uninstrumented reads of the
  // factored matrix through raw()); validate the residual against a_copy.
  std::vector<double> b(n), x(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.next_double();
  std::vector<double> pb = b;
  for (std::size_t k = 0; k < n; ++k) {  // apply pivots, forward subst (L)
    const std::size_t p = piv.raw(k);
    std::swap(pb[k], pb[p]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double acc = pb[i];
    for (std::size_t j = 0; j < i; ++j) acc -= m.raw(i * n + j) * x[j];
    x[i] = acc;  // L has unit diagonal
  }
  for (std::size_t i = n; i-- > 0;) {  // back substitution (U)
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= m.raw(i * n + j) * x[j];
    x[i] = acc / m.raw(i * n + i);
  }
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -b[i];
    for (std::size_t j = 0; j < n; ++j) acc += a_copy[i * n + j] * x[j];
    resid = std::max(resid, std::abs(acc));
  }
  double checksum = 0.0;
  for (std::size_t i = 0; i < n; ++i) checksum += m.raw(i * n + i);
  return KernelResult{checksum, resid < 1e-8};
}

}  // namespace vft::kernels
