// Golden fixture: violates alloc-free-reach in the annotated kernel
// itself: a naked `new` needs no call hop for the reachability walk to
// find (alloc_free_bad.cc hides its allocation one call down).
#include "common/effects.h"

namespace fx {

MWSJ_ALLOC_FREE int* MakeScratch(int n) {
  return new int[n];
}

}  // namespace fx
