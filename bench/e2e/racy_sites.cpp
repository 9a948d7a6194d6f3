// racy_sites: main stores to K = 32 globals, each from its own function,
// then raises a *relaxed* atomic flag - which orders nothing. Three
// readers spin on the flag and then loop over the sites, each read in its
// own function and inside a private mutex: the lock/unlock pair moves the
// reader to a fresh epoch, so every read is a new racing occurrence.
//
// Under the detector report construction dominates: stack capture,
// dedup into contexts, the prior-stack lookup, and the exit-time report
// write. The verdict is exact: K contexts, one per site (the three
// readers share each site's stack). --work = rounds over the K sites.
#include <atomic>

#include "e2e_common.h"

namespace {

constexpr int kReaders = 3;

#define E2E_SITES(X)                                                    \
  X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11) X(12)  \
  X(13) X(14) X(15) X(16) X(17) X(18) X(19) X(20) X(21) X(22) X(23)    \
  X(24) X(25) X(26) X(27) X(28) X(29) X(30) X(31)

#define E2E_DEFINE_SITE(k)                                                  \
  uint64_t g_site_##k;                                                      \
  __attribute__((noinline)) void write_site_##k(uint64_t v) { g_site_##k = v; } \
  __attribute__((noinline)) uint64_t read_site_##k() { return g_site_##k; }
E2E_SITES(E2E_DEFINE_SITE)
#undef E2E_DEFINE_SITE

#define E2E_LIST_WRITER(k) write_site_##k,
#define E2E_LIST_READER(k) read_site_##k,
void (*const kWriters[])(uint64_t) = {E2E_SITES(E2E_LIST_WRITER)};
uint64_t (*const kReadSites[])() = {E2E_SITES(E2E_LIST_READER)};
#undef E2E_LIST_WRITER
#undef E2E_LIST_READER
constexpr int kSites = sizeof(kReadSites) / sizeof(kReadSites[0]);

std::atomic<int> g_published{0};
long g_rounds = 0;

// One cache line each: three readers locking neighbouring mutexes would
// otherwise time the line bouncing between them, not the program.
struct alignas(64) Reader {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;  // private: no edge to main
  uint64_t sum = 0;
};

void* reader(void* arg) {
  Reader* r = static_cast<Reader*>(arg);
  while (g_published.load(std::memory_order_relaxed) == 0) {
  }
  uint64_t sum = 0;
  for (long round = 0; round < g_rounds; ++round) {
    for (int k = 0; k < kSites; ++k) {
      pthread_mutex_lock(&r->mu);
      sum += kReadSites[k]();
      pthread_mutex_unlock(&r->mu);
    }
  }
  r->sum = sum;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  g_rounds = args.work;

  Reader readers[kReaders];
  pthread_t threads[kReaders];
  for (int r = 0; r < kReaders; ++r) e2e::start(&threads[r], reader, &readers[r]);
  // Created first, written after: nothing orders these stores before the
  // readers' loads.
  for (int k = 0; k < kSites; ++k) kWriters[k](e2e::mix(args.seed, k));
  g_published.store(1, std::memory_order_relaxed);

  uint64_t h = e2e::fold(e2e::kFoldInit, static_cast<uint64_t>(args.work));
  for (int r = 0; r < kReaders; ++r) {
    e2e::finish(threads[r]);
    h = e2e::fold(h, readers[r].sum);
  }
  e2e::print_checksum(h);
  return 0;
}
