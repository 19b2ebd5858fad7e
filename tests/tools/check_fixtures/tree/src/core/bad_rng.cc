// Golden fixture: violates exactly rng-outside-common (line 7).
#include <random>

namespace mwsj {

int UnseededDraw() {
  std::mt19937 gen(42);
  return static_cast<int>(gen());
}

}  // namespace mwsj
