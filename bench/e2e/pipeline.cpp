// pipeline: the tomcat/avrora/pmd shape. Main produces malloc'd messages
// of seeded size (64 B - 4 KiB), filled with memset/memcpy, through a
// bounded mutex+condvar queue to two consumers. Consumers parse each
// message, fold it into a mutex-guarded stats table (trylock first),
// publish progress through release/acquire atomics, and free the buffer.
// The consumers are joined and re-created every batch.
//
// Under the detector this is the sync-heavy path: pthread wrappers, the
// lock registry, atomics, range interposition, free hints and tid-slot
// churn, with few plain same-epoch accesses. --work = batches of
// kPerBatch messages (two create/join pairs per batch).
#include <atomic>

#include "e2e_common.h"

namespace {

constexpr int kConsumers = 2;
constexpr long kPerBatch = 40;
constexpr int kQueueCap = 32;
constexpr int kTypes = 8;
constexpr size_t kMinMsg = 64;
constexpr size_t kMaxMsg = 4096;
constexpr size_t kSourceBytes = 8192;

struct Msg {
  uint32_t type;
  uint32_t len;  // payload bytes
  uint64_t seq;
  unsigned char payload[];
};

struct Queue {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t not_empty = PTHREAD_COND_INITIALIZER;
  pthread_cond_t not_full = PTHREAD_COND_INITIALIZER;
  Msg* slots[kQueueCap] = {};
  int head = 0;
  int count = 0;

  void push(Msg* m) {
    pthread_mutex_lock(&mu);
    while (count == kQueueCap) pthread_cond_wait(&not_full, &mu);
    slots[(head + count) % kQueueCap] = m;
    ++count;
    pthread_cond_signal(&not_empty);
    pthread_mutex_unlock(&mu);
  }

  Msg* pop() {
    pthread_mutex_lock(&mu);
    while (count == 0) pthread_cond_wait(&not_empty, &mu);
    Msg* m = slots[head];
    head = (head + 1) % kQueueCap;
    --count;
    pthread_cond_signal(&not_full);
    pthread_mutex_unlock(&mu);
    return m;
  }
};

struct Stats {
  pthread_mutex_t mu = PTHREAD_MUTEX_INITIALIZER;
  uint64_t count[kTypes] = {};
  uint64_t sum[kTypes] = {};
};

Queue g_queue;
Stats g_stats;
std::atomic<uint64_t> g_completed{0};
std::atomic<uint64_t> g_high_seq{0};

uint64_t parse(const Msg* m, Msg* header) {
  std::memcpy(header, m, sizeof(Msg));
  uint64_t h = e2e::fold(e2e::kFoldInit, header->seq);
  const size_t words = header->len / 8;
  const uint64_t* p = reinterpret_cast<const uint64_t*>(m->payload);
  for (size_t w = 0; w < words; ++w) h = e2e::fold(h, p[w]);
  for (size_t b = words * 8; b < header->len; ++b) h = e2e::fold(h, m->payload[b]);
  return h;
}

void* consumer(void*) {
  for (;;) {
    Msg* m = g_queue.pop();
    if (m == nullptr) break;
    Msg header;
    const uint64_t h = parse(m, &header);
    if (pthread_mutex_trylock(&g_stats.mu) != 0) pthread_mutex_lock(&g_stats.mu);
    g_stats.count[header.type]++;
    g_stats.sum[header.type] += h;
    pthread_mutex_unlock(&g_stats.mu);
    g_high_seq.store(header.seq, std::memory_order_release);
    g_completed.fetch_add(1, std::memory_order_acq_rel);
    std::free(m);
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse_args(argc, argv);
  e2e::Rng rng(args.seed);
  unsigned char source[kSourceBytes];
  for (size_t i = 0; i < kSourceBytes; i += 8) {
    const uint64_t v = rng.next();
    std::memcpy(source + i, &v, 8);
  }

  uint64_t seq = 0;
  uint64_t max_in_flight = 0;
  for (long batch = 0; batch < args.work; ++batch) {
    pthread_t consumers[kConsumers];
    for (auto& c : consumers) e2e::start(&c, consumer, nullptr);
    for (long n = 0; n < kPerBatch; ++n) {
      const size_t size = kMinMsg + rng.next() % (kMaxMsg - kMinMsg + 1);
      const size_t len = size - sizeof(Msg);
      Msg* m = static_cast<Msg*>(std::malloc(size));
      if (m == nullptr) return 3;
      m->type = static_cast<uint32_t>(rng.next() % kTypes);
      m->len = static_cast<uint32_t>(len);
      m->seq = ++seq;
      std::memset(m->payload, static_cast<int>(m->seq & 0xFF), len);
      const size_t copy = len / 2;
      std::memcpy(m->payload, source + rng.next() % (kSourceBytes - copy), copy);
      g_queue.push(m);
      const uint64_t done = g_completed.load(std::memory_order_acquire);
      if (seq - done > max_in_flight) max_in_flight = seq - done;
    }
    for (int c = 0; c < kConsumers; ++c) g_queue.push(nullptr);
    for (auto& c : consumers) e2e::finish(c);
  }

  uint64_t h = e2e::fold(e2e::kFoldInit, static_cast<uint64_t>(args.work));
  h = e2e::fold(h, g_completed.load(std::memory_order_acquire));
  for (int t = 0; t < kTypes; ++t) {
    h = e2e::fold(h, g_stats.count[t]);
    h = e2e::fold(h, g_stats.sum[t]);
  }
  e2e::print_checksum(h);
  std::fprintf(stderr, "pipeline: messages=%llu max_in_flight=%llu\n",
               static_cast<unsigned long long>(seq),
               static_cast<unsigned long long>(max_in_flight));
  return 0;
}
