// End-to-end exit-code contract of the command-line tools. The binary
// paths and the fixture directory are baked in by CMake, so these tests
// exercise exactly what CI runs:
//   validate_bench_json  0 ok / 1 schema-invalid / 2 usage / 3 parse-IO
//   bench_diff           0 ok / 1 regression / 2 usage / 3 parse-IO
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/wait.h>

namespace {

int run(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  if (status == -1) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// The last line `cmd` prints on stdout (stderr discarded).
std::string last_line(const std::string& cmd) {
  FILE* pipe = popen((cmd + " 2> /dev/null").c_str(), "r");
  if (pipe == nullptr) return "";
  std::string line, last;
  char buf[512];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      last = line;
      line.clear();
    }
  }
  pclose(pipe);
  return line.empty() ? last : line;
}

const std::string kValidate = VALIDATE_BIN;
const std::string kBenchDiff = BENCH_DIFF_BIN;
const std::string kData = TEST_DATA_DIR;

}  // namespace

TEST(ValidateCli, AcceptsAValidDocument) {
  EXPECT_EQ(run(kValidate + " " + kData + "/bench_valid.json"), 0);
}

TEST(ValidateCli, SchemaViolationsExitOne) {
  EXPECT_EQ(run(kValidate + " " + kData + "/bench_missing_version.json"), 1);
  EXPECT_EQ(run(kValidate + " " + kData + "/bench_wrong_types.json"), 1);
  // A schema violation dominates a parse error across a file list.
  EXPECT_EQ(run(kValidate + " " + kData + "/bench_wrong_types.json " +
                kData + "/malformed.json"),
            1);
}

TEST(ValidateCli, ParseAndIoFailuresExitThree) {
  EXPECT_EQ(run(kValidate + " " + kData + "/malformed.json"), 3);
  EXPECT_EQ(run(kValidate + " " + kData + "/no_such_file.json"), 3);
}

TEST(ValidateCli, UsageErrorsExitTwo) {
  EXPECT_EQ(run(kValidate), 2);
  EXPECT_EQ(run(kValidate + " --bogus-flag x.json"), 2);
  EXPECT_EQ(run(kValidate + " --trace"), 2);
}

TEST(ValidateCli, TraceModeChecksPerfettoStructure) {
  EXPECT_EQ(run(kValidate + " --trace " + kData + "/trace_valid.json"), 0);
  EXPECT_EQ(run(kValidate + " --trace " + kData + "/trace_invalid.json"), 1);
  // A BENCH document is not a trace.
  EXPECT_EQ(run(kValidate + " --trace " + kData + "/bench_valid.json"), 1);
}

TEST(BenchDiffCli, SelfCompareExitsZero) {
  const std::string doc = kData + "/bench_valid.json";
  EXPECT_EQ(run(kBenchDiff + " " + doc + " " + doc), 0);
}

TEST(BenchDiffCli, DivergenceExitsOneUnlessTolerated) {
  const std::string base = kData + "/bench_valid.json";
  const std::string cur = kData + "/bench_diverged.json";
  EXPECT_EQ(run(kBenchDiff + " " + base + " " + cur), 1);
  // Huge tolerances absorb the numeric drift (device_pulses +50%,
  // accuracy -0.16); the volatile env/timing/pool changes never gate.
  EXPECT_EQ(run(kBenchDiff + " --abs-tol 1 --counter-rel-tol 1 " + base +
                " " + cur),
            0);
}

TEST(BenchDiffCli, SummaryCountsDriftsApartFromNotes) {
  const std::string base = kData + "/bench_valid.json";
  const std::string cur = kData + "/bench_diverged.json";
  EXPECT_EQ(last_line(kBenchDiff + " " + base + " " + base),
            "bench_diff: deterministic sections match (0 tolerated "
            "drift(s), 0 informational note(s))");
  // device_pulses, the accuracy gauge and the three per_cycle results
  // drift within these tolerances; timing, pool, histograms and env
  // differ as notes.
  EXPECT_EQ(last_line(kBenchDiff + " --abs-tol 1 --counter-rel-tol 1 " +
                      base + " " + cur),
            "bench_diff: deterministic sections match (5 tolerated "
            "drift(s), 4 informational note(s))");
}

TEST(BenchDiffCli, UsageAndIoErrors) {
  EXPECT_EQ(run(kBenchDiff), 2);
  EXPECT_EQ(run(kBenchDiff + " only_one.json"), 2);
  EXPECT_EQ(run(kBenchDiff + " --abs-tol nope a.json b.json"), 2);
  EXPECT_EQ(run(kBenchDiff + " " + kData + "/bench_valid.json " + kData +
                "/no_such_file.json"),
            3);
  EXPECT_EQ(run(kBenchDiff + " " + kData + "/bench_valid.json " + kData +
                "/malformed.json"),
            3);
}
