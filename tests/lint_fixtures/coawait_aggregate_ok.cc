// Fixture: the safe shapes — aggregates built as named locals, lambdas
// passed in the operand, and braces that belong to the surrounding
// statement. Never compiled; scanned by lint_test.cc.
#include "net/ibfab.h"
#include "sim/engine.h"

namespace fixture {

hmr::sim::Task<> post_rts(hmr::ibv::QueuePair& qp, hmr::net::Message rts) {
  hmr::ibv::SendWr wr{.wr_id = 1, .message = std::move(rts)};
  auto wc = co_await qp.send(std::move(wr));
  (void)wc;
}

hmr::sim::Task<> work(Retrier& retrier, int& counter) {
  co_await retrier.run(3, [&counter](int attempt) {
    counter += attempt;
  });
  co_await [&]() -> hmr::sim::Task<> { co_return; }();
}

hmr::sim::Task<> drain(Channel& ch, Engine& engine, int* slots) {
  while (auto msg = co_await ch.recv()) {
    consume(*msg);
  }
  if (co_await ch.ready(slots[0])) {
    Spec spec{1, 2};
    co_await engine.delay(spec.first);
  }
}

}  // namespace fixture
