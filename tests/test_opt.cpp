// Optimizer pass pipeline (core/opt): parse_pass_list, the shipped pass
// (parity + improvement) and the RDP4 round-trip of an optimized plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/check.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "nn/dense.h"
#include "nn/sequential.h"

using namespace rdo;

namespace {

constexpr const char* kAllPasses = "color_offset_registers";

struct Fixture {
  std::unique_ptr<nn::Sequential> net;
  nn::Tensor images;
  std::vector<int> labels;
  core::DeployOptions opt;

  [[nodiscard]] nn::DataView train() const { return {&images, &labels}; }
};

/// Tiny deterministic compile fixture (same shape as the test_plan_io
/// one): one Dense layer, cheap LUT protocol, scheme set per test.
Fixture make_fixture(core::Scheme scheme) {
  Fixture f;
  nn::Rng rng(11);
  f.net = std::make_unique<nn::Sequential>();
  f.net->emplace<nn::Dense>(6, 4, rng);
  f.images = nn::Tensor({12, 6});
  for (std::int64_t i = 0; i < f.images.size(); ++i) {
    f.images[i] = 0.2f * static_cast<float>(i % 7) - 0.6f;
  }
  for (int i = 0; i < 12; ++i) f.labels.push_back(i % 4);
  f.opt.scheme = scheme;
  f.opt.weight_bits = 4;
  f.opt.offsets.m = 2;
  f.opt.offsets.offset_bits = 4;
  f.opt.variation.sigma = 0.5;
  f.opt.lut_k_sets = 2;
  f.opt.lut_j_cycles = 2;
  f.opt.grad_samples = 12;
  f.opt.seed = 11;
  return f;
}

std::string save_bytes(const core::DeploymentPlan& plan, std::uint64_t fp) {
  std::ostringstream out(std::ios::binary);
  plan.save(out, fp);
  return out.str();
}

/// Deploy one programming cycle on the fast backend and evaluate.
float eval_once(const core::DeploymentPlan& plan, const Fixture& f) {
  core::EffectiveWeightBackend be(plan, *f.net);
  be.program_cycle(0);
  return be.evaluate(f.train(), 4);
}

bool assign_equal(const core::VawoResult& a, const core::VawoResult& b) {
  return a.ctw == b.ctw && a.offsets == b.offsets &&
         a.complemented == b.complemented &&
         a.groups_per_col == b.groups_per_col;
}

}  // namespace

TEST(OptParse, RegistryHoldsCanonicalOrder) {
  const std::vector<std::string>& names = core::opt::registered_passes();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "color_offset_registers");
}

TEST(OptParse, RoundTripsValidLists) {
  auto all = core::opt::parse_pass_list(kAllPasses);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, core::opt::registered_passes());
  EXPECT_EQ(all->size(), 1u);
}

TEST(OptParse, EmptyStringIsEmptyList) {
  auto names = core::opt::parse_pass_list("");
  ASSERT_TRUE(names.has_value());
  EXPECT_TRUE(names->empty());
}

TEST(OptParse, RejectsUnknownRepeatedAndEmptyNames) {
  std::string err;
  EXPECT_FALSE(core::opt::parse_pass_list("bogus_pass", &err).has_value());
  EXPECT_NE(err.find("bogus_pass"), std::string::npos);
  EXPECT_NE(err.find("color_offset_registers"), std::string::npos)
      << "error should list the known passes";

  EXPECT_FALSE(core::opt::parse_pass_list(
                   "color_offset_registers,color_offset_registers", &err)
                   .has_value());
  EXPECT_NE(err.find("listed twice"), std::string::npos) << err;
  EXPECT_FALSE(core::opt::parse_pass_list(
                   "color_offset_registers,,color_offset_registers", &err)
                   .has_value());
  EXPECT_FALSE(core::opt::parse_pass_list(",", &err).has_value());
}

TEST(OptPipeline, UnknownNameThrows) {
  Fixture f = make_fixture(core::Scheme::Plain);
  core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_THROW(core::opt::run_pipeline(plan, {"bogus"}),
               std::invalid_argument);
}

TEST(OptPipeline, EmptyListLeavesPlanByteIdentical) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::VAWOStar);
  g.opt.opt_passes = "";
  const core::DeploymentPlan same =
      core::compile_plan(*g.net, g.opt, g.train());
  EXPECT_EQ(save_bytes(base, 1), save_bytes(same, 1));
}

TEST(OptPipeline, OptimizedCompileIsDeterministic) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  f.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan a =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::VAWOStar);
  g.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan b =
      core::compile_plan(*g.net, g.opt, g.train());
  EXPECT_EQ(save_bytes(a, 7), save_bytes(b, 7));
}

TEST(OptColorRegisters, CountsDistinctOffsetValues) {
  Fixture f = make_fixture(core::Scheme::Plain);
  core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt, f.train());
  const core::VawoResult before = plan.layers[0].assign;
  const std::int64_t geometric = plan.total_offset_registers();
  core::opt::run_pipeline(plan, {"color_offset_registers"});
  // Plain scheme: every group stores (0, direct), one distinct value per
  // layer — maximal sharing.
  EXPECT_EQ(plan.layers[0].offset_registers, 1);
  EXPECT_LT(plan.total_offset_registers(), geometric);
  // Accounting-only: the assignment is untouched.
  EXPECT_TRUE(assign_equal(plan.layers[0].assign, before));
}

TEST(OptPipeline, PwtSchemesAreLeftUntouched) {
  Fixture f = make_fixture(core::Scheme::VAWOStarPWT);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::VAWOStarPWT);
  g.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan opt =
      core::compile_plan(*g.net, g.opt, g.train());
  // Every pass skips PWT schemes (compile-time sharing would change
  // the tuning head-room and counters); only the options' pass list
  // differs.
  EXPECT_TRUE(assign_equal(opt.layers[0].assign, base.layers[0].assign));
  EXPECT_EQ(opt.total_offset_registers(), base.total_offset_registers());
}

TEST(OptPipeline, ChecksRejectMalformedPwtPlans) {
  // Every pass's run() returns early under PWT, so a malformed PWT plan
  // reaches the checks untouched: check_layer_geometry must reject every
  // row.
  Fixture f = make_fixture(core::Scheme::PWT);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  const std::vector<std::string>& all = core::opt::registered_passes();
  {
    core::DeploymentPlan ok = base;
    EXPECT_NO_THROW(core::opt::run_pipeline(ok, all));
  }
  const std::vector<
      std::pair<const char*, std::function<void(core::PlanLayer&)>>>
      rows = {
          {"no offset register",
           [](core::PlanLayer& pl) { pl.offset_registers = 0; }},
          {"groups_per_col off by one",
           [](core::PlanLayer& pl) { ++pl.assign.groups_per_col; }},
          {"complement flag under PWT",
           [](core::PlanLayer& pl) { pl.assign.complemented[0] = 1; }},
      };
  for (const auto& [what, malform] : rows) {
    SCOPED_TRACE(what);
    core::DeploymentPlan plan = base;
    malform(plan.layers[0]);
    EXPECT_THROW(core::opt::run_pipeline(plan, all),
                 core::ContractViolation);
  }
}

TEST(OptPlanIo, OptimizedPlanRoundTripsByteIdentical) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  f.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan plan =
      core::compile_plan(*f.net, f.opt, f.train());
  const std::uint64_t fp =
      core::plan_fingerprint(*f.net, f.opt, f.train());
  const std::string bytes = save_bytes(plan, fp);
  std::istringstream in(bytes, std::ios::binary);
  auto loaded = core::DeploymentPlan::load(in, fp, "test");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(save_bytes(*loaded, fp), bytes);
  EXPECT_EQ(loaded->total_offset_registers(),
            plan.total_offset_registers());
  EXPECT_EQ(eval_once(*loaded, f), eval_once(plan, f));
}

TEST(OptPlanIo, PassListChangesFingerprint) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const std::uint64_t fp_plain =
      core::plan_fingerprint(*f.net, f.opt, f.train());
  f.opt.opt_passes = kAllPasses;
  const std::uint64_t fp_opt =
      core::plan_fingerprint(*f.net, f.opt, f.train());
  EXPECT_NE(fp_plain, fp_opt);
}

TEST(OptPlanIo, RejectsBadStoredPassList) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt, f.train());
  plan.opt.opt_passes = "bogus_pass";  // save() does not re-validate
  const std::string bytes = save_bytes(plan, 3);
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(core::DeploymentPlan::load(in, 3, "test"), core::PlanError);
}
