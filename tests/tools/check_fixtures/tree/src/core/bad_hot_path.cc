// mwsj-check: hot-path
// Golden fixture: violates exactly hot-path-std-function.
#include <functional>

namespace mwsj {

void ForEachCandidate(const std::function<void(int)>& visit) {
  for (int i = 0; i < 8; ++i) visit(i);
}

}  // namespace mwsj
