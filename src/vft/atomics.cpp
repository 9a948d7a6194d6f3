#include "vft/atomics.h"

#include <cstdlib>
#include <cstring>

namespace vft::atomics {

Mode mode_from_env() {
  const char* e = std::getenv("VFT_ATOMICS");
  return e != nullptr && std::strcmp(e, "sc") == 0 ? Mode::kSc
                                                   : Mode::kPrecise;
}

FenceTls& fence_tls(std::uint64_t gen) {
  thread_local FenceTls tl;
  if (tl.generation != gen) {
    // A Session::reset() happened since this thread last fenced: the old
    // clocks belong to a torn-down backend. Start from scratch.
    tl.has_release = false;
    tl.has_acquire = false;
    tl.release_V.reset();
    tl.acquire_V.reset();
    tl.generation = gen;
  }
  return tl;
}

}  // namespace vft::atomics
