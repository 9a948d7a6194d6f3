// Shared scaffolding for the end-to-end workload programs: argument
// parsing, the seeded generator, a checksum fold, and checked thread
// start/join.
//
// Plain C++/pthreads only - no vft header - so one source builds three
// ways: raw (the baseline and the reference output), compile-only
// -fsanitize=thread linked against libvft_preload (the measured build),
// and fully linked against libtsan (the independent verdict oracle).
//
// Only synchronisation the interposer models is used: pthread mutex and
// trylock, condvar wait/signal/broadcast, create/join, std::atomic, and
// the mem*/free family. No pthread_barrier, rwlock or semaphore: those
// are unwrapped and would read as false races.
#ifndef VFT_BENCH_E2E_COMMON_H_
#define VFT_BENCH_E2E_COMMON_H_

#include <pthread.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace e2e {

struct Args {
  uint64_t seed = 1;
  long work = 0;  // workload-specific unit; 0 = set-up and teardown only
};

/// `prog --seed S --work N`; both required, anything else exits 2.
inline Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_work = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    char* end = nullptr;
    if (std::strcmp(argv[i], "--seed") == 0) {
      a.seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = *end == '\0';
    } else if (std::strcmp(argv[i], "--work") == 0) {
      a.work = std::strtol(argv[i + 1], &end, 10);
      have_work = *end == '\0' && a.work >= 0;
    } else {
      break;
    }
  }
  if (argc != 5 || !have_seed || !have_work) {
    std::fprintf(stderr, "usage: %s --seed S --work N\n", argv[0]);
    std::exit(2);
  }
  return a;
}

/// splitmix64: one 64-bit draw per call, fully determined by the seed.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
};

/// A value determined by (seed, index), for inputs addressed by index.
inline uint64_t mix(uint64_t seed, uint64_t index) {
  return Rng(seed ^ (index * 0xD6E8FEB86659FD93ull)).next();
}

/// Order-dependent fold (FNV-1a over 64-bit words).
inline uint64_t fold(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001B3ull;
}
constexpr uint64_t kFoldInit = 0xCBF29CE484222325ull;

inline void print_checksum(uint64_t h) {
  std::printf("checksum=%016llx\n", static_cast<unsigned long long>(h));
}

inline void start(pthread_t* t, void* (*fn)(void*), void* arg) {
  if (pthread_create(t, nullptr, fn, arg) != 0) {
    std::fprintf(stderr, "pthread_create failed\n");
    std::exit(3);
  }
}

inline void finish(pthread_t t) {
  if (pthread_join(t, nullptr) != 0) {
    std::fprintf(stderr, "pthread_join failed\n");
    std::exit(3);
  }
}

}  // namespace e2e

#endif  // VFT_BENCH_E2E_COMMON_H_
