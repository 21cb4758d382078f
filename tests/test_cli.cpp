// Tests for the rdo_experiment flag parser (tools/experiment_args.cpp):
// strict numeric parsing with end-pointer checks, bounds validation and
// enum-string validation — malformed input must produce a diagnostic
// instead of an atoi-style silent zero. The companion CTest entry
// `cli_rejects_malformed_flag` (WILL_FAIL) drives the real binary.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment_args.h"

using rdo::tools::ExperimentArgs;
using rdo::tools::parse_experiment_args;
using rdo::tools::ParseOutcome;

namespace {

ParseOutcome parse(std::vector<const char*> argv, ExperimentArgs& out) {
  argv.insert(argv.begin(), "rdo_experiment");
  return parse_experiment_args(static_cast<int>(argv.size()), argv.data(),
                               out);
}

ParseOutcome parse(std::vector<const char*> argv) {
  ExperimentArgs ignored;
  return parse(std::move(argv), ignored);
}

}  // namespace

TEST(CliArgs, DefaultsAreValid) {
  ExperimentArgs a;
  const ParseOutcome r = parse({}, a);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(a.model, "mlp");
  EXPECT_EQ(a.scheme, "vawo*+pwt");
  EXPECT_EQ(a.m, 16);
  EXPECT_FALSE(a.help);
}

TEST(CliArgs, ParsesAFullValidCommandLine) {
  ExperimentArgs a;
  const ParseOutcome r =
      parse({"--model", "lenet", "--scheme", "vawo*", "--cell", "mlc2",
             "--scope", "per-cell", "--sigma", "0.8", "--ddv", "0.25", "--m",
             "64", "--bits", "10", "--repeats", "5", "--seed", "42", "--json",
             "out.json"},
            a);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(a.model, "lenet");
  EXPECT_EQ(a.scheme, "vawo*");
  EXPECT_EQ(a.cell, "mlc2");
  EXPECT_EQ(a.scope, "per-cell");
  EXPECT_DOUBLE_EQ(a.sigma, 0.8);
  EXPECT_DOUBLE_EQ(a.ddv, 0.25);
  EXPECT_EQ(a.m, 64);
  EXPECT_EQ(a.offset_bits, 10);
  EXPECT_EQ(a.repeats, 5);
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.json_path, "out.json");
}

TEST(CliArgs, BoundaryValuesAreAccepted) {
  ExperimentArgs a;
  EXPECT_TRUE(parse({"--sigma", "0"}, a).ok);
  EXPECT_TRUE(parse({"--sigma", "8"}, a).ok);
  EXPECT_TRUE(parse({"--seed", "18446744073709551615"}, a).ok);
  EXPECT_EQ(a.seed, 18446744073709551615ull);
  EXPECT_TRUE(parse({"--ddv", "1"}, a).ok);
  EXPECT_TRUE(parse({"--m", "1"}, a).ok);
  EXPECT_TRUE(parse({"--m", "1048576"}, a).ok);
  EXPECT_TRUE(parse({"--bits", "1"}, a).ok);
  EXPECT_TRUE(parse({"--bits", "16"}, a).ok);
  EXPECT_TRUE(parse({"--repeats", "1"}, a).ok);
}

TEST(CliArgs, RejectsNonNumericValues) {
  // atof/atoi would have silently produced 0 for every one of these.
  EXPECT_FALSE(parse({"--sigma", "nope"}).ok);
  EXPECT_FALSE(parse({"--sigma", "1.5x"}).ok);
  EXPECT_FALSE(parse({"--m", "abc"}).ok);
  EXPECT_FALSE(parse({"--m", "16q"}).ok);
  EXPECT_FALSE(parse({"--m", "1.5"}).ok);
  EXPECT_FALSE(parse({"--bits", ""}).ok);
  EXPECT_FALSE(parse({"--repeats", "3three"}).ok);
  EXPECT_FALSE(parse({"--seed", "-3"}).ok);
  EXPECT_FALSE(parse({"--seed", "12ab"}).ok);
  // strtod reads these as NaN / infinity; NaN also slips past every
  // ordered bounds check.
  EXPECT_FALSE(parse({"--sigma", "nan"}).ok);
  EXPECT_FALSE(parse({"--sigma", "inf"}).ok);
  EXPECT_FALSE(parse({"--sigma", "infinity"}).ok);
  EXPECT_FALSE(parse({"--ddv", "nan"}).ok);
  // strto* skip leading whitespace and take a sign; strtoull wraps a
  // negative seed to 2^64 - 1.
  EXPECT_FALSE(parse({"--seed", " -1"}).ok);
  EXPECT_FALSE(parse({"--seed", "+1"}).ok);
  EXPECT_FALSE(parse({"--m", " 16"}).ok);
  EXPECT_FALSE(parse({"--repeats", "+2"}).ok);
  EXPECT_FALSE(parse({"--sigma", " 0.5"}).ok);
}

TEST(CliArgs, RejectsOutOfBoundsValues) {
  EXPECT_FALSE(parse({"--m", "0"}).ok);
  EXPECT_FALSE(parse({"--m", "-4"}).ok);
  EXPECT_FALSE(parse({"--bits", "0"}).ok);
  EXPECT_FALSE(parse({"--bits", "17"}).ok);
  EXPECT_FALSE(parse({"--sigma", "-0.1"}).ok);
  EXPECT_FALSE(parse({"--ddv", "1.5"}).ok);
  EXPECT_FALSE(parse({"--ddv", "-0.5"}).ok);
  EXPECT_FALSE(parse({"--repeats", "0"}).ok);
  EXPECT_FALSE(parse({"--m", "99999999999999999999"}).ok);
  // core::kMaxOffsetGroupSize + 1: the library rejects it too.
  EXPECT_FALSE(parse({"--m", "1048577"}).ok);
  // The serve protocol's sigma range.
  EXPECT_FALSE(parse({"--sigma", "8.5"}).ok);
  EXPECT_FALSE(parse({"--sigma", "1e300"}).ok);
}

TEST(CliArgs, RejectsUnknownNamesAndFlags) {
  EXPECT_FALSE(parse({"--model", "alexnet"}).ok);
  EXPECT_FALSE(parse({"--scheme", "vawo**"}).ok);
  EXPECT_FALSE(parse({"--cell", "mlc4"}).ok);
  EXPECT_FALSE(parse({"--scope", "global"}).ok);
  EXPECT_FALSE(parse({"--frobnicate"}).ok);
}

TEST(CliArgs, RejectsMissingValues) {
  EXPECT_FALSE(parse({"--sigma"}).ok);
  EXPECT_FALSE(parse({"--model"}).ok);
  EXPECT_FALSE(parse({"--json"}).ok);
}

TEST(CliArgs, ErrorsNameTheOffendingFlag) {
  const ParseOutcome r = parse({"--bits", "17"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--bits"), std::string::npos);
  EXPECT_NE(r.error.find("17"), std::string::npos);
}

TEST(CliArgs, HelpIsRecognized) {
  ExperimentArgs a;
  EXPECT_TRUE(parse({"--help"}, a).ok);
  EXPECT_TRUE(a.help);
  EXPECT_NE(std::string(rdo::tools::experiment_usage()).find("--sigma"),
            std::string::npos);
}
