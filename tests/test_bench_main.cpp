// BenchMain command-line parsing: the flags every bench accepts, and the
// usage exit (code 2) for anything else.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_main.h"
#include "obs/json.h"
#include "obs/report.h"

namespace scale::obs {
namespace {

/// A writable argv built from `args` (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) ptrs_.push_back(a.data());
    ptrs_.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(args_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

void parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  BenchMain bm(a.argc(), a.argv(), "bench_main_test", "BenchMain test");
  (void)bm.finish();
}

TEST(BenchMainDeathTest, ThreadsIsAnUnknownArgument) {
  EXPECT_EXIT(parse({"bench", "--threads=4"}), testing::ExitedWithCode(2),
              "unknown argument '--threads=4'");
  EXPECT_EXIT(parse({"bench", "--threads", "4"}), testing::ExitedWithCode(2),
              "unknown argument '--threads'");
}

TEST(BenchMain, QuickAndJsonStillParse) {
  const std::string path = testing::TempDir() + "bench_main_test.json";
  Argv a({"bench", "--quick", "--json", path});
  BenchMain bm(a.argc(), a.argv(), "bench_main_test", "BenchMain test");
  EXPECT_TRUE(bm.quick());
  EXPECT_EQ(bm.tracer(), nullptr);
  bm.report().section("rows").columns({"x"}).row({1.0});
  EXPECT_EQ(bm.finish(), 0);

  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const auto doc = Json::parse(text.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(validate_bench_json(*doc).empty());
  EXPECT_EQ(doc->find("bench")->as_string(), "bench_main_test");
}

}  // namespace
}  // namespace scale::obs
