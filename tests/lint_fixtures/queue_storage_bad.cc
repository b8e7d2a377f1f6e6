// Fixture: std::deque in sim-facing code, where every idle queue would
// own a node. Never compiled; scanned by lint_test.cc.
#include <deque>
#include <memory>

namespace fixture {

struct Waiters {
  std::deque<int> handles;  // a member
};

void drain(std::deque<std::unique_ptr<int>>& queue) {  // a parameter
  using std::deque;  // a using-declaration
  (void)queue;
}

}  // namespace fixture
