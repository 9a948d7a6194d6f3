// Native corpus: race_wrong_lock with spin locks. Each thread increments
// the shared counter under its own private spin lock, so every access is
// "protected" and yet no release->acquire edge joins the two threads.
//
// Expected verdict: RACE.
#include <pthread.h>

namespace {

long counter = 0;
pthread_spinlock_t lk_a;
pthread_spinlock_t lk_b;

void* bump_a(void*) {
  for (int i = 0; i < 100; ++i) {
    pthread_spin_lock(&lk_a);
    counter = counter + 1;
    pthread_spin_unlock(&lk_a);
  }
  return nullptr;
}

void* bump_b(void*) {
  for (int i = 0; i < 100; ++i) {
    pthread_spin_lock(&lk_b);
    counter = counter + 1;
    pthread_spin_unlock(&lk_b);
  }
  return nullptr;
}

}  // namespace

int main() {
  pthread_spin_init(&lk_a, PTHREAD_PROCESS_PRIVATE);
  pthread_spin_init(&lk_b, PTHREAD_PROCESS_PRIVATE);
  pthread_t a, b;
  pthread_create(&a, nullptr, bump_a, nullptr);
  pthread_create(&b, nullptr, bump_b, nullptr);
  pthread_join(a, nullptr);
  pthread_join(b, nullptr);
  pthread_spin_destroy(&lk_a);
  pthread_spin_destroy(&lk_b);
  return counter > 0 ? 0 : 1;
}
