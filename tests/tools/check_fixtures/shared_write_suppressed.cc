// Golden fixture: a shared-write-reach hit silenced by a justified
// `mwsj-check: allow(...)` comment — a once-per-batch publication, not a
// per-record count.
#include <atomic>
#include <cstdint>

#include "common/effects.h"

namespace fx {

std::atomic<int64_t> g_batches{0};

MWSJ_ALLOC_FREE int64_t SumBatch(const int64_t* xs, int n) {
  int64_t sum = 0;
  for (int i = 0; i < n; ++i) sum += xs[i];
  // mwsj-check: allow(shared-write-reach): one increment per batch of n
  // records, outside the per-record loop.
  g_batches.fetch_add(1, std::memory_order_relaxed);
  return sum;
}

}  // namespace fx
