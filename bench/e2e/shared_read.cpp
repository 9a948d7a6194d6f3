// shared_read: main fills an 8 MiB table of u64, then three readers do
// seeded random lookups while main keeps rewriting a hot 1% range under
// a mutex. Readers read that range under the same mutex, so writes sit
// beside reads; every other entry is read-shared by all three readers.
//
// Under the detector this is the read-shared slow path: cells escalate to
// read vector clocks, the hot-range writes check them, and the table's
// shadow is larger than L2. Main rewrites the values it wrote at fill
// time, so every lookup reads the same value whatever the interleaving
// and the checksum is deterministic. --work = units of 2^16 lookups per
// reader (main rewrites the hot range `work` times).
#include "e2e_common.h"

namespace {

constexpr long kEntries = 1L << 20;         // 8 MiB of u64
constexpr long kHot = kEntries / 100;       // the mutex-guarded 1%
constexpr long kLookupsPerWork = 1L << 16;  // per reader
constexpr long kRewriteChunk = 64;          // entries per critical section
constexpr int kReaders = 3;

uint64_t* g_table = nullptr;
long g_hot_lo = 0;
pthread_mutex_t g_hot_mu = PTHREAD_MUTEX_INITIALIZER;
uint64_t g_seed = 0;
long g_work = 0;

uint64_t value_at(long i) { return e2e::mix(g_seed, static_cast<uint64_t>(i)); }

struct Reader {
  int id;
  uint64_t sum;
};

void* reader(void* arg) {
  Reader* r = static_cast<Reader*>(arg);
  e2e::Rng rng(e2e::mix(g_seed, 0x5EED0000u + r->id));
  uint64_t sum = 0;
  const long lookups = g_work * kLookupsPerWork;
  for (long n = 0; n < lookups; ++n) {
    const long i = static_cast<long>(rng.next() & (kEntries - 1));
    // One unsigned compare: `i >= lo && i < lo + kHot` mispredicts its
    // first branch half the time when the seeded range sits mid-table, so
    // the raw baseline's speed would depend on the seed.
    if (static_cast<unsigned long>(i - g_hot_lo) < static_cast<unsigned long>(kHot)) {
      pthread_mutex_lock(&g_hot_mu);
      sum += g_table[i];
      pthread_mutex_unlock(&g_hot_mu);
    } else {
      sum += g_table[i];
    }
  }
  r->sum = sum;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  g_seed = args.seed;
  g_work = args.work;

  if (args.work > 0) {
    g_table = static_cast<uint64_t*>(std::malloc(kEntries * sizeof(uint64_t)));
    if (g_table == nullptr) return 3;
    for (long i = 0; i < kEntries; ++i) g_table[i] = value_at(i);
    g_hot_lo = static_cast<long>(e2e::mix(g_seed, 0x407) % (kEntries - kHot));
  }

  Reader readers[kReaders];
  pthread_t threads[kReaders];
  for (int r = 0; r < kReaders; ++r) {
    readers[r] = Reader{r, 0};
    e2e::start(&threads[r], reader, &readers[r]);
  }
  for (long pass = 0; pass < args.work; ++pass) {
    for (long lo = 0; lo < kHot; lo += kRewriteChunk) {
      const long hi = lo + kRewriteChunk < kHot ? lo + kRewriteChunk : kHot;
      pthread_mutex_lock(&g_hot_mu);
      for (long j = g_hot_lo + lo; j < g_hot_lo + hi; ++j) g_table[j] = value_at(j);
      pthread_mutex_unlock(&g_hot_mu);
    }
  }
  uint64_t h = e2e::fold(e2e::kFoldInit, static_cast<uint64_t>(args.work));
  for (int r = 0; r < kReaders; ++r) {
    e2e::finish(threads[r]);
    h = e2e::fold(h, readers[r].sum);
  }
  e2e::print_checksum(h);
  std::free(g_table);
  return 0;
}
