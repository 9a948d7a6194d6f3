// A server-shaped application on the extended runtime surface: a thread
// pool serving requests against a configuration loaded through Once
// (static-initializer ordering), a cache guarded by a reader-writer lock,
// and per-request-class metrics under a mutex. Demonstrates that
// VerifiedFT-v2 stays quiet across the whole primitive zoo on a realistic
// composition - and, with --bug, that dropping the cache's write lock to a
// read lock is caught.
//
//   $ ./server_app
//   $ ./server_app --bug
#include <cstdio>
#include <cstring>

#include "runtime/sync_extras.h"
#include "runtime/thread_pool.h"
#include "vft/vft_v2.h"

namespace {

using namespace vft;

int run(bool inject_bug) {
  RaceCollector races;
  rt::Runtime<VftV2> R{VftV2(&races)};
  rt::Runtime<VftV2>::MainScope scope(R);

  constexpr std::size_t kCacheSlots = 32;
  constexpr int kRequests = 400;

  // Configuration, initialized exactly once by whichever worker gets there
  // first; everyone else is ordered after the initializer.
  rt::Once<int, VftV2> config(R);
  auto config_table = std::make_unique<rt::Array<std::uint64_t, VftV2>>(R, 16);

  // Cache: rwlock-protected key/value slots.
  rt::SharedMutex<VftV2> cache_rw(R);
  rt::Array<std::uint64_t, VftV2> cache_keys(R, kCacheSlots, 0);
  rt::Array<std::uint64_t, VftV2> cache_vals(R, kCacheSlots, 0);
  cache_keys.set_name("cache.keys");
  cache_vals.set_name("cache.vals");

  // Metrics: per-request-class counters the pool workers share under
  // metrics_mu.
  rt::Array<std::uint64_t, VftV2> metrics(R, 64, 0);
  rt::Mutex<VftV2> metrics_mu(R);

  rt::ThreadPool<VftV2> pool(R, 3);

  // Two priming requests warm the same cache slot from two workers that
  // are deliberately in flight at the same time (the barrier makes the
  // overlap deterministic even on one core). With write locks this is a
  // clean ordered pair; under --bug's read locks it is the race.
  rt::Barrier<VftV2> rendezvous(R, 2);
  for (int p = 0; p < 2; ++p) {
    pool.submit([&, p] {
      rendezvous.arrive_and_wait();
      const std::uint64_t key = 55;  // same slot for both primers
      if (inject_bug) {
        rt::SharedGuard<VftV2> g(cache_rw);
        cache_keys.store(key % kCacheSlots, key);
        cache_vals.store(key % kCacheSlots, key * 10 + p);
      } else {
        cache_rw.lock();
        cache_keys.store(key % kCacheSlots, key);
        cache_vals.store(key % kCacheSlots, key * 10 + p);
        cache_rw.unlock();
      }
    });
  }

  for (int req = 0; req < kRequests; ++req) {
    pool.submit([&, req] {
      // Metrics first: were it last, the metrics lock would incidentally
      // order successive requests end-to-end and mask the --bug race (an
      // instructive effect in its own right - incidental synchronization
      // hiding races is why precise detectors must track *actual* edges).
      {
        rt::Guard<VftV2> g(metrics_mu);
        const std::size_t cls = static_cast<std::size_t>(req) % 64;
        metrics.store(cls, metrics.load(cls) + 1);
      }
      const int seed = config.get([&] {
        for (std::size_t i = 0; i < config_table->size(); ++i) {
          config_table->store(i, 0x9E3779B9ull * (i + 1));
        }
        return 41;
      });
      const std::uint64_t key =
          1 + (static_cast<std::uint64_t>(req) * 2654435761ull + seed) % 97;
      const std::size_t slot = key % kCacheSlots;

      // Fast path: shared lookup.
      bool hit;
      {
        rt::SharedGuard<VftV2> g(cache_rw);
        hit = cache_keys.load(slot) == key;
      }
      if (!hit) {
        const std::uint64_t value =
            key * config_table->load(key % config_table->size());
        if (inject_bug) {
          // BUG: populate the cache while holding only the *read* lock.
          rt::SharedGuard<VftV2> g(cache_rw);
          cache_keys.store(slot, key);
          cache_vals.store(slot, value);
        } else {
          cache_rw.lock();
          cache_keys.store(slot, key);
          cache_vals.store(slot, value);
          cache_rw.unlock();
        }
      }
    });
  }
  pool.wait_idle();
  pool.shutdown();

  std::uint64_t served = 0;
  for (std::size_t i = 0; i < 64; ++i) served += metrics.raw(i);
  std::printf("requests served: %llu (expected %d)\n",
              static_cast<unsigned long long>(served), kRequests);
  std::printf("race reports: %zu%s\n", races.count(),
              races.suppressed() != 0 ? " (+suppressed)" : "");
  for (const RaceContext& c : races.contexts()) {
    std::printf("  %s (count %llu)\n", races.describe(c.first).c_str(),
                static_cast<unsigned long long>(c.count));
  }
  if (inject_bug) {
    return races.empty() ? 1 : 0;  // must be caught
  }
  return races.empty() && served == kRequests ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool bug = argc > 1 && std::strcmp(argv[1], "--bug") == 0;
  std::printf("server_app (%s)\n",
              bug ? "--bug: cache fill under read lock" : "clean");
  return run(bug);
}
