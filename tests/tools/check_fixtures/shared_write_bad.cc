// Golden fixture: violates shared-write-reach. The annotated kernel counts
// its calls through a helper that bumps a process-global atomic — a
// read-modify-write on one cache line every worker thread contends on.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

std::atomic<int64_t> g_calls{0};

void CountCall() { g_calls.fetch_add(1, std::memory_order_relaxed); }

MWSJ_ALLOC_FREE int ClampKernel(int v, int lo, int hi) {
  CountCall();
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace fx
