// Fixture: well-formed, documented config keys via both extraction
// paths (key constant and direct accessor literal). Never compiled;
// scanned by lint_test.cc.
#include "common/conf.h"

inline constexpr const char* kFixtureKnob = "mapred.fixture.known";

void configure(hmr::Conf& conf) {
  conf.set_int("mapred.fixture.known", 1);
}
