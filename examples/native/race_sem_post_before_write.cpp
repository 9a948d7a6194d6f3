// Native corpus: norace_sem_handoff with the producer's post moved ahead
// of its writes. The consumer's successful wait still acquires the
// semaphore's clock, but that clock holds only what the producer did
// before posting: the 64 writes after it are unordered with the
// consumer's reads, whichever runs first.
//
// Expected verdict: RACE.
#include <pthread.h>
#include <semaphore.h>

namespace {

constexpr int kWords = 64;
long buf[kWords];
sem_t ready;

void* produce(void*) {
  sem_post(&ready);
  for (int i = 0; i < kWords; ++i) buf[i] = i + 1;
  return nullptr;
}

void* consume(void* out) {
  sem_wait(&ready);
  long sum = 0;
  for (int i = 0; i < kWords; ++i) sum += buf[i];
  *static_cast<long*>(out) = sum;
  return nullptr;
}

}  // namespace

int main() {
  sem_init(&ready, 0, 0);
  long sum = 0;
  pthread_t c, p;
  pthread_create(&c, nullptr, consume, &sum);
  pthread_create(&p, nullptr, produce, nullptr);
  pthread_join(p, nullptr);
  pthread_join(c, nullptr);
  sem_destroy(&ready);
  return sum >= 0 ? 0 : 1;
}
