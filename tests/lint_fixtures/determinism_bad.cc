// Fixture: sim-facing code reaching for every nondeterminism source the
// determinism rule bans. Never compiled; scanned by lint_test.cc.
#include <chrono>
#include <unordered_map>

int entropy() {
  std::unordered_map<int, int> order;
  srand(7);
  order[rand()] = 1;
  const char* home = getenv("HOME");
  (void)home;
  const auto t = std::chrono::steady_clock::now();
  (void)t;
  return int(order.size());
}
