// Fixture: aggregates built inside co_await operands, the shapes GCC 12
// miscompiles. Never compiled; scanned by lint_test.cc.
#include "net/ibfab.h"
#include "net/socket.h"

namespace fixture {

hmr::sim::Task<> post_rts(hmr::ibv::QueuePair& qp, hmr::net::Message rts) {
  // Designated initializer passed straight to an awaited call.
  auto wc = co_await qp.send({.wr_id = 1, .message = std::move(rts)});
  (void)wc;
}

hmr::sim::Task<> enqueue(Pending::Queue& queue, Host* from, Conn conn,
                         Event* established) {
  // Named aggregate type, still a temporary in the operand.
  co_await queue.send(Pending{from, conn, established});
}

hmr::sim::Task<> pin(Domain& pd, Buffer buffer, double scale) {
  // Nested inside another call, spread over lines.
  auto* mr = co_await pd.register_memory(
      wrap(std::move(buffer),
           {buffer, scale}));
  (void)mr;
}

hmr::sim::Task<> relay(Endpoint& ep) {
  co_return co_await ep.send(Message{nullptr, 64, 2});
}

}  // namespace fixture
