// mwsj-check: hot-path
// Golden fixture: every violation carries a justified allow() suppression,
// so the check must exit 0. Exercises same-line, previous-line and
// comment-block placement and the comma-separated form.
#include <functional>
#include <iostream>
#include <random>

namespace mwsj {

// mwsj-check: allow(rng-outside-common): fixture reference engine.
std::mt19937 g_generator(7);

void Log(int v) {
  std::cout << v << "\n";  // mwsj-check: allow(stdout-in-library): fixture.
}

// mwsj-check: allow(hot-path-std-function, stdout-in-library): fixture
// callback shape, not a per-candidate path.
void Visit(const std::function<void(int)>& fn) { fn(0); }

}  // namespace mwsj
