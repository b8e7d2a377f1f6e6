// Fixture: the deterministic spellings of everything determinism_bad.cc
// does wrong. Never compiled; scanned by lint_test.cc.
#include <map>

#include "common/rng.h"
#include "sim/engine.h"

int deterministic(hmr::sim::Engine& engine, hmr::Rng& rng) {
  std::map<int, int> order;
  order[int(rng.uniform(0, 5))] = 1;
  const double now = engine.now();
  (void)now;
  return int(order.size());
}

// Member functions spelled like the banned libc calls are other
// functions entirely; only the free calls are flagged.
int members(Source& source, Env* env) {
  source.srand(7);
  const char* home = env->getenv("X");
  (void)home;
  return source.rand();
}
