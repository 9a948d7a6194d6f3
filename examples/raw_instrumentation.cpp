// Instrumenting *existing* data structures with the ambient, TSan-style
// API: no rt::Var wrappers - plain structs plus VFT_AMBIENT_READ/WRITE
// annotations at the access sites (exactly the calls a compiler pass would
// insert), with ambient::Thread/Lock supplying the synchronization events.
// Whole-struct stores use the sized on_range_write - one event per shadow
// word, the memcpy-annotation shape.
//
// The ambient session is backed by the lock-free two-level packed shadow
// space (word-granular, like TSan); the final stats line shows the shadow
// pages the run materialized.
//
//   $ ./raw_instrumentation
//
// The program is a tiny order-book: two producer threads append to a
// shared book under a lock and update per-producer tallies without one;
// a mistake in the tally sharing is detected and named in the report.
#include <cstdio>
#include <vector>

#include "runtime/ambient.h"

namespace amb = vft::rt::ambient;

struct Order {
  long price = 0;
  long qty = 0;
};

struct Book {
  Order orders[64];
  int count = 0;
};

int main() {
  amb::Session::instance().reset();
  amb::MainScope main_scope;

  Book book;
  long tallies[2] = {0, 0};
  long hot_total = 0;  // BUG: shared total updated without a lock
  amb::Lock book_mu;

  // Give the racy location a human-readable name for reports.
  amb::races().name_var(reinterpret_cast<std::uint64_t>(&hot_total),
                        "hot_total");

  auto produce = [&](int who) {
    for (int i = 0; i < 20; ++i) {
      const long price = 100 + who * 10 + i;
      book_mu.lock();
      const int slot = *VFT_AMBIENT_READ(&book.count);
      // One sized event for the whole Order, then plain stores: the range
      // variant walks both 8-byte words the struct occupies.
      amb::on_range_write(&book.orders[slot], sizeof(Order));
      book.orders[slot].price = price;
      book.orders[slot].qty = i + 1;
      *VFT_AMBIENT_WRITE(&book.count) = slot + 1;
      book_mu.unlock();

      // Per-producer tallies are private: fine without a lock.
      amb::on_write(&tallies[who]);
      tallies[who] += price;

      // ...but the shared running total is not (the planted bug). The
      // physical update goes through atomic_ref so the demo itself is
      // well-defined; the *logical* race is what VerifiedFT reports.
      amb::on_write(&hot_total);
      std::atomic_ref<long>(hot_total).fetch_add(price,
                                                 std::memory_order_relaxed);
    }
  };

  amb::Thread p0([&] { produce(0); });
  amb::Thread p1([&] { produce(1); });
  p0.join();
  p1.join();

  std::printf("book entries: %d (expected 40)\n", book.count);
  std::printf("tallies: %ld / %ld, hot_total: %ld\n", tallies[0], tallies[1],
              std::atomic_ref<long>(hot_total).load());
  std::printf("shadow: %s\n",
              vft::rt::str(amb::runtime().packed_space().stats()).c_str());
  std::printf("race reports: %zu\n", amb::races().count());
  const std::vector<vft::RaceContext> contexts = amb::races().contexts();
  for (const vft::RaceContext& c : contexts) {
    std::printf("  %s (count %llu)\n", amb::races().describe(c.first).c_str(),
                static_cast<unsigned long long>(c.count));
  }
  // Every report should be about the named shared total - the locked book
  // and the private tallies stay clean.
  for (const vft::RaceContext& c : contexts) {
    if (c.first.var != reinterpret_cast<std::uint64_t>(&hot_total)) {
      std::printf("unexpected report on a non-bug location!\n");
      return 1;
    }
  }
  return amb::races().count() >= 1 ? 0 : 1;
}
