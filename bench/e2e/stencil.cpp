// stencil: the sor/lufact shape. Two 2 MiB double arrays; main and three
// workers each own a quarter. Every sweep computes the owner's slice of B
// from A's neighbourhood (reading across slice edges), meets at a
// barrier, copies B back into A, and meets again.
//
// Under the detector nearly every access is a plain load or store with
// no sync between barriers: the first touch of each element per phase
// advances its cell's epoch (slow path), the rest hit the inline
// same-epoch fast path. --work = sweeps.
#include <bit>

#include "e2e_common.h"

namespace {

constexpr long kElems = 1L << 18;  // 2 MiB of doubles per array
constexpr int kThreads = 4;        // main + 3 workers

/// Reusable barrier from one mutex and one condvar (a generation counter
/// tells a wake-up for this round from a spurious one). The last arriver
/// releases the mutex after everyone else released it, so every waiter
/// leaves ordered after every arrival.
struct Barrier {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t cv = PTHREAD_COND_INITIALIZER;
  int parties = 0;
  int waiting = 0;
  unsigned generation = 0;

  void wait() {
    pthread_mutex_lock(&mu);
    const unsigned gen = generation;
    if (++waiting == parties) {
      waiting = 0;
      ++generation;
      pthread_cond_broadcast(&cv);
    } else {
      while (gen == generation) pthread_cond_wait(&cv, &mu);
    }
    pthread_mutex_unlock(&mu);
  }
};

double* g_a = nullptr;
double* g_b = nullptr;
long g_sweeps = 0;
Barrier g_barrier;

struct Slice {
  long lo;
  long hi;
};

void sweep_slice(const Slice& s) {
  for (long sweep = 0; sweep < g_sweeps; ++sweep) {
    for (long i = s.lo; i < s.hi; ++i) {
      const double left = g_a[i == 0 ? 0 : i - 1];
      const double right = g_a[i + 1 == kElems ? i : i + 1];
      g_b[i] = 0.25 * left + 0.5 * g_a[i] + 0.25 * right;
    }
    g_barrier.wait();
    for (long i = s.lo; i < s.hi; ++i) g_a[i] = g_b[i];
    g_barrier.wait();
  }
}

void* worker(void* arg) {
  sweep_slice(*static_cast<Slice*>(arg));
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  g_sweeps = args.work;
  g_barrier.parties = kThreads;

  if (args.work > 0) {
    g_a = static_cast<double*>(std::malloc(kElems * sizeof(double)));
    g_b = static_cast<double*>(std::malloc(kElems * sizeof(double)));
    if (g_a == nullptr || g_b == nullptr) return 3;
    e2e::Rng rng(args.seed);
    for (long i = 0; i < kElems; ++i) {
      g_a[i] = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    }
  }

  Slice slices[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    slices[t] = Slice{kElems * t / kThreads, kElems * (t + 1) / kThreads};
  }
  pthread_t workers[kThreads - 1];
  for (int t = 1; t < kThreads; ++t) e2e::start(&workers[t - 1], worker, &slices[t]);
  sweep_slice(slices[0]);
  for (int t = 1; t < kThreads; ++t) e2e::finish(workers[t - 1]);

  uint64_t h = e2e::fold(e2e::kFoldInit, static_cast<uint64_t>(args.work));
  if (args.work > 0) {
    for (long i = 0; i < kElems; ++i) h = e2e::fold(h, std::bit_cast<uint64_t>(g_a[i]));
  }
  e2e::print_checksum(h);
  std::free(g_a);
  std::free(g_b);
  return 0;
}
