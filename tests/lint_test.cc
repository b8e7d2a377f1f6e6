// hmr-lint tests: each rule family gets a fixture pair under
// tests/lint_fixtures/ — one file that must flag and one that must stay
// silent — plus a self-check that the real tree lints clean against the
// checked-in docs, so a lint regression fails the tier-1 suite and not
// just the CI lint job.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace hmr::lint {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing " << path;
  if (f == nullptr) return {};
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// Lints one fixture file, presenting it under src/ so every rule family
// applies (determinism and the metric registry are scoped to src/).
Report lint_fixture(const std::string& name, const Options& opts = {}) {
  const std::string text =
      slurp(std::string(HMR_LINT_FIXTURE_DIR) + "/" + name);
  return lint_files({{"src/" + name, text}}, opts);
}

int count_rule(const Report& report, const std::string& rule) {
  int n = 0;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::string dump(const Report& report) {
  std::string out;
  for (const Finding& f : report.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

constexpr char kConfigDoc[] =
    "| Key | Type | Default | Meaning |\n"
    "|---|---|---|---|\n"
    "| `mapred.fixture.known` | int | 1 | fixture knob |\n";

constexpr char kMetricsDoc[] =
    "| Name | Type | Subsystem | Meaning |\n"
    "|---|---|---|---|\n"
    "| `fixture.documented` | counter | fixture | documented metric |\n"
    "| `fixture.used_bytes` | gauge | fixture | prefix-registered |\n";

TEST(LintDeterminismTest, FlagsBannedSources) {
  const Report report = lint_fixture("determinism_bad.cc");
  // <chrono> + <unordered_map> includes, unordered_map, rand(), srand(),
  // getenv(), steady_clock.
  EXPECT_EQ(count_rule(report, "determinism"), 7) << dump(report);
  EXPECT_FALSE(report.clean());
}

TEST(LintDeterminismTest, SilentOnDeterministicCode) {
  const Report report = lint_fixture("determinism_ok.cc");
  EXPECT_TRUE(report.clean()) << dump(report);
}

TEST(LintStatusTest, FlagsDiscardsAndUnguardedValue) {
  const Report report = lint_fixture("status_bad.cc");
  // Silent discard, (void) launder, unguarded port.value(), and
  // .value() straight off the parse_port("81") call.
  EXPECT_EQ(count_rule(report, "status-discipline"), 4) << dump(report);
}

TEST(LintStatusTest, SilentOnCheckedCode) {
  const Report report = lint_fixture("status_ok.cc");
  EXPECT_TRUE(report.clean()) << dump(report);
}

TEST(LintConfigTest, FlagsMalformedUndocumentedAndDeadKeys) {
  Options opts;
  opts.config_doc = kConfigDoc;
  const Report report = lint_fixture("config_bad.cc", opts);
  // Bad-case key, undocumented key, dead doc row for the known key.
  EXPECT_EQ(count_rule(report, "config-registry"), 3) << dump(report);
}

TEST(LintConfigTest, SilentWhenDocumented) {
  Options opts;
  opts.config_doc = kConfigDoc;
  const Report report = lint_fixture("config_ok.cc", opts);
  EXPECT_TRUE(report.clean()) << dump(report);
  ASSERT_EQ(report.config_keys.size(), 1u);
  EXPECT_EQ(report.config_keys[0], "mapred.fixture.known");
}

TEST(LintMetricTest, FlagsConventionUndocumentedAndDeadNames) {
  Options opts;
  opts.metrics_doc = kMetricsDoc;
  const Report report = lint_fixture("metric_bad.cc", opts);
  // Convention breaker, undocumented name, dead doc row; the second doc
  // row also goes dead because this fixture never registers it.
  EXPECT_EQ(count_rule(report, "metric-registry"), 4) << dump(report);
}

TEST(LintMetricTest, SilentWhenDocumentedIncludingPrefixSuffix) {
  Options opts;
  opts.metrics_doc = kMetricsDoc;
  const Report report = lint_fixture("metric_ok.cc", opts);
  EXPECT_TRUE(report.clean()) << dump(report);
  ASSERT_EQ(report.metric_names.size(), 1u);
  EXPECT_EQ(report.metric_names[0], "fixture.documented");
  ASSERT_EQ(report.metric_name_suffixes.size(), 1u);
  EXPECT_EQ(report.metric_name_suffixes[0], "used_bytes");
}

TEST(LintSuppressionTest, UnjustifiedOrUnknownSuppressionsDoNotWaive) {
  const Report report = lint_fixture("suppression_bad.cc");
  EXPECT_EQ(count_rule(report, "suppression"), 2) << dump(report);
  EXPECT_EQ(count_rule(report, "status-discipline"), 2) << dump(report);
}

TEST(LintSuppressionTest, JustifiedSuppressionWaives) {
  const Report report = lint_fixture("suppression_ok.cc");
  EXPECT_TRUE(report.clean()) << dump(report);
}

TEST(LintStatusTest, QualifiedNamesDisambiguateCollidingRegistrations) {
  // Two classes declare close() with different return kinds, so the
  // bare name is ambiguous; qualified registration recovers the Status
  // kind at qualified call sites and the void kind stays silent.
  const Report report = lint_fixture("status_qualified.cc");
  EXPECT_EQ(count_rule(report, "status-discipline"), 1) << dump(report);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_NE(dump(report).find("close"), std::string::npos);
}

TEST(LintBorrowTest, FlagsBorrowsHeldAcrossAwait) {
  const Report report = lint_fixture("borrow_across_await_bad.cc");
  // A KvView and an arena span, each used after a co_await.
  EXPECT_EQ(count_rule(report, "coroutine-borrow"), 2) << dump(report);
  EXPECT_NE(dump(report).find("used after a co_await"), std::string::npos);
}

TEST(LintBorrowTest, SilentWhenConsumedBeforeAwait) {
  const Report report = lint_fixture("borrow_ok.cc");
  EXPECT_TRUE(report.clean()) << dump(report);
}

TEST(LintCoawaitAggregateTest, FlagsBracedInitializersInAwaitOperands) {
  const Report report = lint_fixture("coawait_aggregate_bad.cc");
  // Designated, named-type, nested multi-line, and co_return co_await.
  EXPECT_EQ(count_rule(report, "coawait-aggregate"), 4) << dump(report);
  EXPECT_NE(dump(report).find("named local"), std::string::npos);
}

TEST(LintCoawaitAggregateTest, SilentOnNamedLocalsAndLambdas) {
  const Report report = lint_fixture("coawait_aggregate_ok.cc");
  EXPECT_EQ(count_rule(report, "coawait-aggregate"), 0) << dump(report);
}

TEST(LintQueueStorageTest, FlagsStdDeque) {
  const Report report = lint_fixture("queue_storage_bad.cc");
  // The include, the member, the parameter and the using-declaration.
  EXPECT_EQ(count_rule(report, "queue-storage"), 4) << dump(report);
  EXPECT_NE(dump(report).find("sim/fifo.h"), std::string::npos);
}

TEST(LintQueueStorageTest, SilentOnFifoAndLookalikes) {
  const Report report = lint_fixture("queue_storage_ok.cc");
  EXPECT_TRUE(report.clean()) << dump(report);
}

TEST(LintQueueStorageTest, LintSourcesAreExempt) {
  const std::string text =
      slurp(std::string(HMR_LINT_FIXTURE_DIR) + "/queue_storage_bad.cc");
  const Report report = lint_files({{"src/lint/queue_storage_bad.cc", text}},
                                   Options{});
  EXPECT_EQ(count_rule(report, "queue-storage"), 0) << dump(report);
}

TEST(LintSuppressionTest, StaleWaiverIsFlagged) {
  const Report report = lint_fixture("stale_suppression_bad.cc");
  EXPECT_EQ(count_rule(report, "suppression"), 1) << dump(report);
  EXPECT_EQ(count_rule(report, "status-discipline"), 0) << dump(report);
  EXPECT_NE(dump(report).find("stale suppression"), std::string::npos);
}

TEST(LintReportTest, JsonCarriesSchemaAndCounts) {
  const Report report = lint_fixture("determinism_bad.cc");
  const std::string json = report.to_json().dump();
  EXPECT_NE(json.find("\"schema\":\"hmr-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"determinism\":7"), std::string::npos);
}

// The dogfood guarantee: the repo's own tree stays lint-clean against
// the checked-in registries.
TEST(LintTreeTest, RepoTreeIsClean) {
  const std::string root = HMR_LINT_REPO_ROOT;
  auto files = collect_tree(root, {"src", "tools", "tests"});
  ASSERT_TRUE(files.ok()) << files.status().to_string();
  Options opts;
  opts.config_doc = slurp(root + "/docs/CONFIG.md");
  opts.metrics_doc = slurp(root + "/docs/METRICS.md");
  ASSERT_FALSE(opts.config_doc.empty());
  ASSERT_FALSE(opts.metrics_doc.empty());
  const Report report = lint_files(files.value(), opts);
  EXPECT_TRUE(report.clean()) << dump(report);
}

}  // namespace
}  // namespace hmr::lint
