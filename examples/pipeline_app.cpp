// A realistic instrumented application: a three-stage producer/worker/
// aggregator pipeline using the full runtime API surface - mutexes,
// condition variables, a volatile shutdown flag, a barrier, and shared
// instrumented buffers. Demonstrates that VerifiedFT stays quiet on a
// correctly synchronized nontrivial program, and (with --bug) that it
// precisely localizes a realistic synchronization mistake: publishing the
// result buffer through an unsynchronized flag instead of the volatile.
//
//   $ ./pipeline_app          # clean run: 0 reports
//   $ ./pipeline_app --bug    # broken publication: precise reports
#include <cstdio>
#include <cstring>

#include "runtime/instrument.h"
#include "vft/vft_v2.h"

namespace {

using namespace vft;

constexpr std::size_t kQueueCap = 8;
constexpr int kItems = 200;
constexpr std::uint32_t kWorkers = 3;

template <typename D>
struct Queue {
  explicit Queue(rt::Runtime<D>& R)
      : mu(R), cv(R), items(R, kQueueCap, 0), head(R, 0), tail(R, 0),
        closed(R, 0) {}

  rt::Mutex<D> mu;
  rt::CondVar<D> cv;
  rt::Array<int, D> items;
  rt::Var<int, D> head, tail, closed;

  void push(int v) {
    mu.lock();
    cv.wait(mu, [&] { return tail.load() - head.load() < static_cast<int>(kQueueCap); });
    items.store(static_cast<std::size_t>(tail.load()) % kQueueCap, v);
    tail.store(tail.load() + 1);
    mu.unlock();
    cv.notify_all();
  }

  void close() {
    mu.lock();
    closed.store(1);
    mu.unlock();
    cv.notify_all();
  }

  /// Returns false at end-of-stream.
  bool pop(int* out) {
    mu.lock();
    cv.wait(mu, [&] { return head.load() != tail.load() || closed.load() == 1; });
    if (head.load() == tail.load()) {
      mu.unlock();
      return false;
    }
    *out = items.load(static_cast<std::size_t>(head.load()) % kQueueCap);
    head.store(head.load() + 1);
    mu.unlock();
    cv.notify_all();
    return true;
  }
};

int run(bool inject_bug) {
  RaceCollector races;
  rt::Runtime<VftV2> R{VftV2(&races)};
  rt::Runtime<VftV2>::MainScope scope(R);

  Queue<VftV2> queue(R);
  rt::Array<long, VftV2> partials(R, kWorkers, 0);
  rt::Volatile<int, VftV2> published(R, 0);
  rt::Var<int, VftV2> published_racy(R, 0);  // the --bug variant's "flag"
  rt::Barrier<VftV2> done_barrier(R, kWorkers + 1);

  rt::Thread<VftV2> producer(R, [&] {
    for (int i = 1; i <= kItems; ++i) queue.push(i);
    queue.close();
  });

  std::vector<std::unique_ptr<rt::Thread<VftV2>>> workers;
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    workers.push_back(std::make_unique<rt::Thread<VftV2>>(R, [&, w] {
      long acc = 0;
      int item;
      while (queue.pop(&item)) acc += item;
      partials.store(w, acc);
      done_barrier.arrive_and_wait();
    }));
  }

  rt::Thread<VftV2> aggregator(R, [&] {
    done_barrier.arrive_and_wait();  // all partials published by the barrier
    long total = 0;
    for (std::uint32_t w = 0; w < kWorkers; ++w) total += partials.load(w);
    partials.store(0, total);  // reuse slot 0 as the result cell
    if (inject_bug) {
      published_racy.store(1);  // BUG: plain flag, no release semantics
    } else {
      published.store(1);  // volatile write publishes the result
    }
  });

  producer.join();
  for (auto& w : workers) w->join();

  // Main polls the flag and reads the result. With the volatile this is a
  // clean publication; with the plain flag it is the classic broken
  // "ready flag" idiom and VerifiedFT reports both the flag race and the
  // unprotected read of the result cell.
  if (inject_bug) {
    while (published_racy.load() != 1) {
    }
  } else {
    while (published.load() != 1) {
    }
  }
  const long total = partials.load(0);
  aggregator.join();

  std::printf("pipeline total = %ld (expected %d)\n", total,
              kItems * (kItems + 1) / 2);
  std::printf("race reports: %zu\n", races.count());
  for (const RaceContext& c : races.contexts()) {
    std::printf("  %s (count %llu)\n", c.first.str().c_str(),
                static_cast<unsigned long long>(c.count));
  }
  if (inject_bug && races.empty()) {
    std::printf("expected reports under --bug but saw none!\n");
    return 1;
  }
  if (!inject_bug && !races.empty()) {
    std::printf("unexpected reports on the clean run!\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool bug = argc > 1 && std::strcmp(argv[1], "--bug") == 0;
  std::printf("pipeline_app (%s)\n", bug ? "--bug: broken publication"
                                         : "clean");
  return run(bug);
}
