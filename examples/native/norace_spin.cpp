// Native corpus: norace_mutex's two incrementers with a pthread spin lock
// in place of the mutex. A spin lock is a mutex to the analysis: the
// unlock is a release and the successful lock an acquire on the lock
// state of its address, so the critical sections are ordered and the
// analysis must stay quiet.
//
// Expected verdict: NO RACE.
#include <pthread.h>

namespace {

long counter = 0;
pthread_spinlock_t lk;

void* bump(void*) {
  for (int i = 0; i < 1000; ++i) {
    pthread_spin_lock(&lk);
    counter = counter + 1;
    pthread_spin_unlock(&lk);
  }
  return nullptr;
}

}  // namespace

int main() {
  pthread_spin_init(&lk, PTHREAD_PROCESS_PRIVATE);
  pthread_t a, b;
  pthread_create(&a, nullptr, bump, nullptr);
  pthread_create(&b, nullptr, bump, nullptr);
  pthread_join(a, nullptr);
  pthread_join(b, nullptr);
  pthread_spin_destroy(&lk);
  return counter == 2000 ? 0 : 1;
}
