// Golden fixture: clean under shared-write-reach. The annotated kernel
// counts into a block only the calling thread writes — a relaxed load and
// store, no read-modify-write — as common/work_counters.h does.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

struct Tally {
  int64_t calls = 0;
};

thread_local Tally t_tally;

void CountCall() {
  std::atomic_ref<int64_t> calls(t_tally.calls);
  calls.store(calls.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
}

MWSJ_ALLOC_FREE int ClampKernel(int v, int lo, int hi) {
  CountCall();
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace fx
