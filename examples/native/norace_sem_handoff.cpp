// Native corpus: a producer fills a 64-word buffer and posts a
// semaphore; a consumer waits on it and reads the buffer. The post is a
// release into the semaphore's clock and the successful wait an acquire,
// so every read is ordered after every write and the analysis must stay
// quiet.
//
// Expected verdict: NO RACE.
#include <pthread.h>
#include <semaphore.h>

namespace {

constexpr int kWords = 64;
long buf[kWords];
sem_t ready;

void* produce(void*) {
  for (int i = 0; i < kWords; ++i) buf[i] = i + 1;
  sem_post(&ready);
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
  return sum == kWords * (kWords + 1) / 2 ? 0 : 1;
}
