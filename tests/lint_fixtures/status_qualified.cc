// Fixture: two classes declare a `close()` — one returning Status, one
// void — so the bare name is ambiguous and the old registry had to drop
// it. Qualified registration (via the function-index pre-pass) recovers the
// Status kind at qualified call sites: the Flaky::close discard flags,
// the Quiet::close discard stays silent. Never compiled; scanned by
// lint_test.cc.
#include "common/status.h"

namespace fixture {

struct Flaky {
  hmr::Status close();
};

struct Quiet {
  void close();
};

void drive() {
  Flaky::close();
  Quiet::close();
}

}  // namespace fixture
