// ScaleLint self-test: runs the scale_lint binary over the fixture tree in
// tests/lint_fixtures/ and asserts exact finding counts and exit codes per
// rule (DESIGN.md §6). The fixtures mirror real-tree paths (src/sim, src/
// proto, bench, ...) so the path-scoping logic is exercised, not bypassed.
//
// The binary path and fixture root are injected by CMake as compile
// definitions; the fixtures are scanned, never compiled.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/report.h"

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;

  std::size_t count(const std::string& needle) const {
    std::size_t n = 0;
    for (std::size_t at = output.find(needle); at != std::string::npos;
         at = output.find(needle, at + needle.size()))
      ++n;
    return n;
  }
};

/// Run scale_lint with the given arguments, capturing stdout + exit code.
LintRun run_lint(const std::string& args) {
  const std::string cmd =
      std::string(SCALE_LINT_BIN) + " " + args + " 2>/dev/null";
  LintRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot spawn: " << cmd;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

const std::string kFixtures = std::string("--root ") + SCALE_LINT_FIXTURES;
/// Rule L9's own fixture root: it needs tests/ and wholerun/src/ trees of
/// its own, which the per-rule fixture runs above never scan.
const std::string kReach =
    std::string("--root ") + SCALE_LINT_FIXTURES + "/reach";

TEST(ScaleLint, FixtureTreeYieldsExactPerRuleCounts) {
  const LintRun r = run_lint(kFixtures + " src bench");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.count("[L1]"), 6u) << r.output;
  EXPECT_EQ(r.count("[L2]"), 8u) << r.output;
  EXPECT_EQ(r.count("[L3]"), 3u) << r.output;
  EXPECT_EQ(r.count("[L4]"), 3u) << r.output;
  EXPECT_EQ(r.count("[L5]"), 2u) << r.output;
  EXPECT_EQ(r.count("[L6]"), 5u) << r.output;
  EXPECT_EQ(r.count("[L7]"), 2u) << r.output;
}

TEST(ScaleLint, PositiveFixturesFlagTheRightFiles) {
  const LintRun r = run_lint(kFixtures + " src bench");
  EXPECT_EQ(r.count("src/sim/l1_bad.cpp"), 6u) << r.output;
  EXPECT_EQ(r.count("src/sim/l2_bad.cpp"), 2u) << r.output;
  EXPECT_EQ(r.count("src/obs/l2_bad.cpp"), 2u) << r.output;
  EXPECT_EQ(r.count("src/core/l2_bad.cpp"), 2u) << r.output;
  EXPECT_EQ(r.count("src/epc/l2_flat_bad.cpp"), 2u) << r.output;
  EXPECT_EQ(r.count("src/proto/l3_bad.h"), 3u) << r.output;
  EXPECT_EQ(r.count("src/mme/l4_bad.cpp"), 3u) << r.output;
  EXPECT_EQ(r.count("src/epc/l5_bad.cpp"), 2u) << r.output;
  EXPECT_EQ(r.count("src/sim/l6_bad.cpp"), 5u) << r.output;
  EXPECT_EQ(r.count("src/epc/l7_bad.cpp"), 2u) << r.output;
}

TEST(ScaleLint, NegativeFixturesAreCleanAndExitZero) {
  const LintRun r =
      run_lint(kFixtures +
               " src/common/l1_ok.cpp src/sim/l2_ok.cpp src/core/l2_ok.cpp"
               " src/epc/l2_flat_ok.cpp"
               " src/proto/l3_ok.h"
               " src/mme/l4_ok.cpp src/epc/l5_ok.cpp"
               " src/core/l6_ok.cpp src/core/l7_ok.cpp"
               " bench");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

TEST(ScaleLint, ShardWaiversAreAcceptedWithRationale) {
  // l6_ok.cpp holds one of each waiver placement: same-line shard-local,
  // comment-block shard-local, and shard-shared with a reason. None may
  // fire; the reason-less shard-shared() in l6_bad.cpp must.
  const LintRun ok = run_lint(kFixtures + " src/core/l6_ok.cpp");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  const LintRun bad = run_lint(kFixtures + " src/sim/l6_bad.cpp");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_EQ(bad.count("waiver needs a reason"), 1u) << bad.output;
}

TEST(ScaleLint, LayeringIsScopedToSrc) {
  // The same back-edge includes that fail under src/epc pass under bench/.
  const LintRun r = run_lint(kFixtures + " bench/l7_scope_ok.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(ScaleLint, OutOfScopeIterationIsNotFlagged) {
  // Identical code to l2_bad.cpp, but under bench/ — outside rule L2's
  // determinism-critical directory set.
  const LintRun r = run_lint(kFixtures + " bench/l2_scope_ok.cpp");
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(ScaleLint, MissingExplicitPathIsAUsageError) {
  const LintRun r = run_lint(kFixtures + " no/such/dir");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(ScaleLint, ReachFlagsPublicApiNothingElseNames) {
  const LintRun r = run_lint(kReach + " src tests");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.count("[L9]"), 4u) << r.output;
  EXPECT_EQ(r.count("src/core/l9_bad.h"), 4u) << r.output;
  // A Config field nothing sets, a member only its own .cpp calls, a free
  // function nothing calls, and an unreached waiver without a reason.
  EXPECT_EQ(r.count("'Widget::Config::knob'"), 1u) << r.output;
  EXPECT_EQ(r.count("'Widget::polish'"), 1u) << r.output;
  EXPECT_EQ(r.count("'unused_helper'"), 1u) << r.output;
  EXPECT_EQ(r.count("unreached waiver needs a reason"), 1u) << r.output;
}

TEST(ScaleLint, ReachCountsTestsWholeRunMacrosAndWireFields) {
  // l9_ok.h's names are reached only from tests/, only from wholerun/src/,
  // only inside a #define body and only through a kFields list; one more
  // carries an unreached waiver. Clean with tests/ in the scan...
  const std::string ok_files = " src/core/l9_ok.h src/proto/l9_codec.h";
  const LintRun ok = run_lint(kReach + ok_files + " tests");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_TRUE(ok.output.empty()) << ok.output;
  // ...while wholerun/src/ is indexed whatever the scan: without tests/,
  // only the test-reached function loses its reach.
  const LintRun no_tests = run_lint(kReach + ok_files);
  EXPECT_EQ(no_tests.count("[L9]"), 1u) << no_tests.output;
  EXPECT_EQ(no_tests.count("'only_from_tests'"), 1u) << no_tests.output;
}

TEST(ScaleLint, RealTreeIsClean) {
  // The acceptance bar for every PR: the production tree has zero findings.
  const LintRun r =
      run_lint(std::string("--root ") + SCALE_REPO_ROOT +
               " src bench tests examples tools");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

// ---------------------------------------------------- scale-lint-v1 report

/// Run the bench_json_check binary (validator / baseline-compare modes).
LintRun run_json_check(const std::string& args) {
  const std::string cmd =
      std::string(SCALE_JSON_CHECK_BIN) + " " + args + " 2>/dev/null";
  LintRun r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot spawn: " << cmd;
  if (pipe == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_json(const char* name) {
  return testing::TempDir() + "scale_lint_test_" + name + ".json";
}

TEST(ScaleLintJson, TwoRunsAreByteIdentical) {
  const std::string a = tmp_json("run_a");
  const std::string b = tmp_json("run_b");
  const LintRun r1 = run_lint(kFixtures + " --json " + a + " src bench");
  const LintRun r2 = run_lint(kFixtures + " --json " + b + " src bench");
  EXPECT_EQ(r1.exit_code, 1);
  EXPECT_EQ(r2.exit_code, 1);
  const std::string doc_a = slurp(a);
  const std::string doc_b = slurp(b);
  ASSERT_FALSE(doc_a.empty());
  EXPECT_EQ(doc_a, doc_b) << "scale-lint-v1 output must be deterministic";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(ScaleLintJson, ReportValidatesAndCountsMatchFixtures) {
  const std::string path = tmp_json("counts");
  run_lint(kFixtures + " --json " + path + " src bench");
  const auto doc = scale::obs::Json::parse(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  const auto problems = scale::obs::validate_lint_json(*doc);
  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(doc->find("schema")->as_string(), "scale-lint-v1");
  const auto* by_rule = doc->find("counts")->find("by_rule");
  EXPECT_EQ(by_rule->find("L1")->as_int(), 6);
  EXPECT_EQ(by_rule->find("L2")->as_int(), 8);
  EXPECT_EQ(by_rule->find("L3")->as_int(), 3);
  EXPECT_EQ(by_rule->find("L4")->as_int(), 3);
  EXPECT_EQ(by_rule->find("L5")->as_int(), 2);
  EXPECT_EQ(by_rule->find("L6")->as_int(), 5);
  EXPECT_EQ(by_rule->find("L7")->as_int(), 2);
  EXPECT_EQ(doc->find("counts")->find("findings")->as_int(), 29);
  // The fixture tree carries waivers too (l2_ok waivers, l6_ok contract).
  EXPECT_GT(doc->find("counts")->find("waivers")->as_int(), 0);
}

TEST(ScaleLintJson, RealTreeReportIsCleanAndInventoriesWaivers) {
  const std::string path = tmp_json("real");
  const LintRun r =
      run_lint(std::string("--root ") + SCALE_REPO_ROOT + " --json " + path +
               " src bench tests examples tools");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const auto doc = scale::obs::Json::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  const auto problems = scale::obs::validate_lint_json(*doc);
  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_EQ(doc->find("findings")->size(), 0u);
  // The audited singletons (BufferPool::local, BoxAlloc::freelist,
  // Tracer::current_) plus any L2/L5/L9 waivers must all
  // be inventoried — the report is how a reviewer sees the audit surface.
  // Since Tracer::current_ became thread_local the tree holds no
  // shard-shared singleton at all (every audited global is per-thread), so
  // the real tree asserts shard-local presence and only *validates* any
  // shard-shared waiver that ever reappears; the fixture tree keeps the
  // shard-shared kind itself exercised. (The MillionUE slab store retired
  // the two UeContextStore waivers — its FlatIndex tables are plain
  // vectors.)
  EXPECT_GE(doc->find("waivers")->size(), 5u);
  bool saw_shard_local = false;
  for (const auto& w : doc->find("waivers")->elements()) {
    if (w.find("kind")->as_string() == "shard-local") saw_shard_local = true;
    if (w.find("kind")->as_string() == "shard-shared") {
      EXPECT_FALSE(w.find("reason")->as_string().empty())
          << w.find("file")->as_string();
    }
  }
  EXPECT_TRUE(saw_shard_local);
  // The validator binary agrees (the tier-1 lint leg runs this mode).
  const LintRun check = run_json_check("--lint " + path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  std::remove(path.c_str());
}

TEST(ScaleLintJson, CompareLintFailsOnNewFindingsAndWaivers) {
  const std::string clean = tmp_json("baseline_clean");
  const std::string dirty = tmp_json("current_dirty");
  const std::string waived = tmp_json("current_waived");
  run_lint(kFixtures + " --json " + clean + " src/core/l7_ok.cpp");
  run_lint(kFixtures + " --json " + dirty + " src/sim/l6_bad.cpp");
  run_lint(kFixtures + " --json " + waived + " src/core/l6_ok.cpp");

  // Identical reports: gate passes.
  EXPECT_EQ(run_json_check("--compare-lint " + clean + " " + clean).exit_code,
            0);
  // New findings: gate fails.
  EXPECT_EQ(run_json_check("--compare-lint " + clean + " " + dirty).exit_code,
            1);
  // Zero findings both sides, but NEW waivers: gate still fails — a waiver
  // silently widening the audited surface needs baseline review.
  EXPECT_EQ(run_json_check("--compare-lint " + clean + " " + waived).exit_code,
            1);
  // Findings/waivers *disappearing* is fine (the tree got cleaner).
  EXPECT_EQ(run_json_check("--compare-lint " + dirty + " " + clean).exit_code,
            0);
  std::remove(clean.c_str());
  std::remove(dirty.c_str());
  std::remove(waived.c_str());
}

TEST(ScaleLintJson, ReportWithoutTheL9RowFailsValidation) {
  const std::string path = tmp_json("no_l9");
  run_lint(kReach + " --json " + path + " src/proto/l9_codec.h");
  const auto doc = scale::obs::Json::parse(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(scale::obs::validate_lint_json(*doc).empty());
  scale::obs::Json by_rule = scale::obs::Json::object();
  for (const auto& [rule, n] : doc->find("counts")->find("by_rule")->members())
    if (rule != "L9") by_rule.set(rule, n);
  scale::obs::Json counts = *doc->find("counts");
  counts.set("by_rule", std::move(by_rule));
  scale::obs::Json stripped = *doc;
  stripped.set("counts", std::move(counts));
  EXPECT_FALSE(scale::obs::validate_lint_json(stripped).empty());
}

TEST(ScaleLintJson, CompareLintFailsOnNewL9FindingsAndWaivers) {
  const std::string clean = tmp_json("l9_clean");
  const std::string found = tmp_json("l9_found");
  const std::string waived = tmp_json("l9_waived");
  run_lint(kReach + " --json " + clean + " src/proto/l9_codec.h");
  run_lint(kReach + " --json " + found + " src/core/l9_bad.h");
  run_lint(kReach + " --json " + waived +
           " src/core/l9_ok.h src/proto/l9_codec.h tests");
  const auto doc = scale::obs::Json::parse(slurp(waived));
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->find("waivers")->size(), 1u);
  const scale::obs::Json& w = doc->find("waivers")->elements()[0];
  EXPECT_EQ(w.find("kind")->as_string(), "unreached");
  EXPECT_EQ(w.find("reason")->as_string(), "kept for a caller that lands next");
  const auto compare = [](const std::string& a, const std::string& b) {
    return run_json_check("--compare-lint " + a + " " + b).exit_code;
  };
  EXPECT_EQ(compare(clean, found), 1);
  EXPECT_EQ(compare(clean, waived), 1);
  EXPECT_EQ(compare(waived, waived), 0);
  for (const auto& f : {clean, found, waived}) std::remove(f.c_str());
}

}  // namespace
