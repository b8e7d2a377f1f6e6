// Fixture: queues on sim::Fifo, and "deque" only where it names no
// std::deque. Never compiled; scanned by lint_test.cc.
#include <vector>

#include "sim/fifo.h"

namespace fixture {

// A comment may say std::deque, and so may a string.
const char* kWhy = "std::deque allocates when constructed";

struct Waiters {
  hmr::sim::Fifo<int> handles;
  std::vector<int> deque;  // a member that happens to be named deque
};

int first(Waiters& w) { return w.deque.front() + w.handles.front(); }

}  // namespace fixture
