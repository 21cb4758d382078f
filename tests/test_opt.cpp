// Optimizer pass pipeline (core/opt): parse_pass_list, the four shipped
// passes (parity + improvement per pass), provenance, and the RDP2
// round-trip of an optimized plan.
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
#include "obs/metrics.h"

using namespace rdo;

namespace {

constexpr const char* kAllPasses =
    "tune_group_size,color_offset_registers,eliminate_dead_tiles,"
    "canonicalize_complement";

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
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "tune_group_size");
  EXPECT_EQ(names[1], "color_offset_registers");
  EXPECT_EQ(names[2], "eliminate_dead_tiles");
  EXPECT_EQ(names[3], "canonicalize_complement");
}

TEST(OptParse, RoundTripsValidLists) {
  auto all = core::opt::parse_pass_list(kAllPasses);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(*all, core::opt::registered_passes());

  auto one = core::opt::parse_pass_list("eliminate_dead_tiles");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->size(), 1u);

  // Order is preserved, not canonicalized.
  auto rev =
      core::opt::parse_pass_list("canonicalize_complement,tune_group_size");
  ASSERT_TRUE(rev.has_value());
  EXPECT_EQ((*rev)[0], "canonicalize_complement");
  EXPECT_EQ((*rev)[1], "tune_group_size");
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
  EXPECT_NE(err.find("tune_group_size"), std::string::npos)
      << "error should list the known passes";

  EXPECT_FALSE(
      core::opt::parse_pass_list("tune_group_size,tune_group_size", &err)
          .has_value());
  EXPECT_FALSE(
      core::opt::parse_pass_list("tune_group_size,,eliminate_dead_tiles",
                                 &err)
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
  EXPECT_TRUE(base.passes_applied.empty());
}

TEST(OptPipeline, RecordsProvenanceInOrder) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  f.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan plan =
      core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(plan.passes_applied, core::opt::registered_passes());
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

TEST(OptTuneGroupSize, PlainSchemeSharesRegistersWithoutAccuracyChange) {
  Fixture f = make_fixture(core::Scheme::Plain);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::Plain);
  g.opt.opt_passes = "tune_group_size";
  const core::DeploymentPlan tuned =
      core::compile_plan(*g.net, g.opt, g.train());

  // Plain offsets are all zero, so sibling groups always agree and the
  // 6-row layer's m doubles 2 -> 4 (rows=6: ceil(6/2)=3 groups -> m=4:
  // ceil(6/4)=2 groups). Registers strictly decrease.
  EXPECT_LT(tuned.total_offset_registers(), base.total_offset_registers());
  EXPECT_GT(tuned.layers[0].m, base.layers[0].m);
  // CTWs are untouched; the merged assignment executes bit-identically.
  EXPECT_EQ(tuned.layers[0].assign.ctw, base.layers[0].assign.ctw);
  EXPECT_EQ(eval_once(tuned, g), eval_once(base, f));
}

TEST(OptTuneGroupSize, VawoReSolveIsBitDeterministic) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::VAWOStar);
  g.opt.opt_passes = "tune_group_size";
  const core::DeploymentPlan tuned =
      core::compile_plan(*g.net, g.opt, g.train());

  // Whether or not any layer tuned, the accepted assignment must expand
  // to exactly the baseline per-row assignment: same CTWs, and eval is
  // bit-identical on the same backend.
  EXPECT_EQ(tuned.layers[0].assign.ctw, base.layers[0].assign.ctw);
  EXPECT_LE(tuned.total_offset_registers(), base.total_offset_registers());
  EXPECT_EQ(eval_once(tuned, g), eval_once(base, f));
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

TEST(OptDeadTiles, SkipsAllZeroColumnsAndPreservesLiveDraws) {
  // Zero out one output column of the Dense layer: it quantizes to the
  // zero point everywhere and becomes dead.
  Fixture f = make_fixture(core::Scheme::Plain);
  {
    std::vector<nn::Param*> ps = f.net->params();
    // Dense stores W as fan_in x fan_out row-major; column 2 of 4.
    nn::Param* w = ps[0];
    for (std::int64_t r = 0; r < 6; ++r) w->value[r * 4 + 2] = 0.0f;
  }
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan dead = base;
  core::opt::run_pipeline(dead, {"eliminate_dead_tiles"});

  ASSERT_EQ(dead.layers[0].dead_cols.size(), 4u);
  EXPECT_EQ(dead.layers[0].dead_cols[2], 1);
  EXPECT_EQ(dead.layers[0].dead_cols[0], 0);

  core::EffectiveWeightBackend bbase(base, *f.net);
  core::EffectiveWeightBackend bdead(dead, *f.net);
  bbase.program_cycle(0);
  bdead.program_cycle(0);
  // One 6-row column skipped: 6 fewer weights, pulses scale with
  // cells/weight. Counters are deterministic, so exact.
  EXPECT_EQ(bdead.stats().weights_programmed,
            bbase.stats().weights_programmed - 6);
  EXPECT_EQ(bdead.stats().device_pulses,
            bbase.stats().device_pulses -
                6 * base.prog.cells_per_weight());
  // Live weights consumed the same RNG draws, and the dead column reads
  // back exactly zero, so accuracy cannot degrade vs the noisy zero.
  const float acc_base = bbase.evaluate(f.train(), 4);
  const float acc_dead = bdead.evaluate(f.train(), 4);
  EXPECT_GE(acc_dead, acc_base);
}

/// A backend that keeps every cycle's cells, as a device-level backend
/// does.
class KeepingBackend : public core::EffectiveWeightBackend {
 public:
  KeepingBackend(const core::DeploymentPlan& plan, const nn::Layer& src)
      : EffectiveWeightBackend(plan, src, /*keep_cell_values=*/true) {}
};

TEST(OptDeadTiles, DeadColumnsReadTheZeroPointWithIdealCells) {
  Fixture f = make_fixture(core::Scheme::Plain);
  {
    nn::Param* w = f.net->params()[0];
    for (std::int64_t r = 0; r < 6; ++r) w->value[r * 4 + 1] = 0.0f;
  }
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan dead = base;
  core::opt::run_pipeline(dead, {"eliminate_dead_tiles"});
  const core::PlanLayer& pl = dead.layers[0];
  ASSERT_EQ(pl.dead_cols.size(), 4u);
  ASSERT_EQ(pl.dead_cols[1], 1);

  KeepingBackend kbase(base, *f.net);
  KeepingBackend kdead(dead, *f.net);
  core::EffectiveWeightBackend plain_dead(dead, *f.net);
  for (core::EffectiveWeightBackend* b :
       std::initializer_list<core::EffectiveWeightBackend*>{
           &kbase, &kdead, &plain_dead}) {
    b->program_cycle(3);
  }
  const auto cpw = static_cast<std::size_t>(dead.prog.cells_per_weight());
  const std::vector<int> zero_states = dead.prog.slice(pl.lq.zero);
  const auto& got = kdead.layers()[0];
  const auto& want = kbase.layers()[0];
  ASSERT_EQ(got.cells.size(), got.crw.size() * cpw);
  EXPECT_TRUE(plain_dead.layers()[0].cells.empty());
  for (std::size_t i = 0; i < got.crw.size(); ++i) {
    SCOPED_TRACE("weight " + std::to_string(i));
    const bool is_dead = pl.dead_cols[i % 4] != 0;
    // Keeping cells never changes the CRWs.
    EXPECT_EQ(plain_dead.layers()[0].crw[i], got.crw[i]);
    if (is_dead) {
      EXPECT_EQ(got.crw[i], static_cast<double>(pl.lq.zero));
    } else {
      // Live weights drew exactly the stream they draw without the pass.
      EXPECT_EQ(got.crw[i], want.crw[i]);
    }
    for (std::size_t k = 0; k < cpw; ++k) {
      const double cell = got.cells[i * cpw + k];
      EXPECT_EQ(cell, is_dead ? static_cast<double>(zero_states[k])
                              : want.cells[i * cpw + k]);
    }
  }
  // One 6-row column is skipped: 6 fewer weights and their pulses, with
  // or without kept cells.
  for (const core::EffectiveWeightBackend* b :
       {static_cast<const core::EffectiveWeightBackend*>(&kdead),
        static_cast<const core::EffectiveWeightBackend*>(&plain_dead)}) {
    EXPECT_EQ(b->stats().weights_programmed,
              kbase.stats().weights_programmed - 6);
    EXPECT_EQ(b->stats().device_pulses,
              kbase.stats().device_pulses - 6 * static_cast<std::int64_t>(cpw));
  }
}

TEST(OptCanonicalize, IdentityOnSolverOutput) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan canon = base;
  core::opt::run_pipeline(canon, {"canonicalize_complement"});
  // The solver enumerates the direct form first with strict-< winners,
  // so re-solving an untampered plan reproduces it exactly.
  EXPECT_TRUE(assign_equal(canon.layers[0].assign, base.layers[0].assign));
}

TEST(OptCanonicalize, RepairsTamperedComplementFlags) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan tampered = base;
  tampered.layers[0].assign.complemented[0] ^= 1;
  core::opt::run_pipeline(tampered, {"canonicalize_complement"});
  EXPECT_TRUE(
      assign_equal(tampered.layers[0].assign, base.layers[0].assign));
}

TEST(OptCanonicalize, RepairsTamperedCtwWithUntouchedFlags) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan tampered = base;
  std::vector<int>& ctw = tampered.layers[0].assign.ctw;
  ctw[0] = ctw[0] == 0 ? 1 : ctw[0] - 1;
  ctw.back() = ctw.back() == 0 ? 1 : 0;
  core::opt::run_pipeline(tampered, {"canonicalize_complement"});
  EXPECT_TRUE(
      assign_equal(tampered.layers[0].assign, base.layers[0].assign));
}

namespace {

std::int64_t demoted_total() {
  return obs::global_metrics().counter("opt_complement_groups_demoted")
      .value();
}

/// Raise the first direct-form group's flag (the pass must demote it).
void promote_first_direct_group(core::DeploymentPlan& plan) {
  std::vector<std::uint8_t>& flags = plan.layers[0].assign.complemented;
  for (std::uint8_t& flag : flags) {
    if (flag == 0) {
      flag = 1;
      return;
    }
  }
  FAIL() << "fixture has no direct-form group";
}

}  // namespace

TEST(OptCanonicalize, LoadedPlanReSolvesToTheInMemoryResult) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  const std::string bytes = save_bytes(base, 5);
  std::istringstream in(bytes, std::ios::binary);
  std::optional<core::DeploymentPlan> loaded =
      core::DeploymentPlan::load(in, 5, "test");
  ASSERT_TRUE(loaded.has_value());
  // The solve record is in memory only: RDP2 does not carry it, so the
  // loaded plan takes the re-solve path.
  ASSERT_EQ(base.layers[0].assign.record.m, base.layers[0].m);
  EXPECT_EQ(loaded->layers[0].assign.record.m, 0);

  core::DeploymentPlan in_memory = base;
  promote_first_direct_group(in_memory);
  promote_first_direct_group(*loaded);
  const std::int64_t d0 = demoted_total();
  core::opt::run_pipeline(in_memory, {"canonicalize_complement"});
  const std::int64_t d1 = demoted_total();
  core::opt::run_pipeline(*loaded, {"canonicalize_complement"});
  const std::int64_t d2 = demoted_total();

  EXPECT_TRUE(assign_equal(in_memory.layers[0].assign, base.layers[0].assign));
  EXPECT_TRUE(
      assign_equal(loaded->layers[0].assign, in_memory.layers[0].assign));
  EXPECT_EQ(loaded->layers[0].assign.total_objective,
            in_memory.layers[0].assign.total_objective);
  EXPECT_EQ(d1 - d0, 1);
  EXPECT_EQ(d2 - d1, d1 - d0);
  EXPECT_EQ(save_bytes(*loaded, 5), save_bytes(in_memory, 5));
}

TEST(OptCanonicalize, UsesTheRecordOfTheTunedGroupSize) {
  // Identical weights give every group the same winner, so
  // tune_group_size is guaranteed to double m.
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  auto* dense = dynamic_cast<nn::Dense*>(f.net->children()[0]);
  ASSERT_NE(dense, nullptr);
  nn::Tensor& w = dense->weight_param().value;
  for (std::int64_t i = 0; i < w.size(); ++i) w[i] = 0.25f;
  f.opt.opt_passes = "tune_group_size";
  const core::DeploymentPlan tuned =
      core::compile_plan(*f.net, f.opt, f.train());
  const core::PlanLayer& tl = tuned.layers[0];
  ASSERT_GT(tl.m, f.opt.offsets.m);
  EXPECT_EQ(tl.assign.record.m, tl.m);

  core::DeploymentPlan canon = tuned;
  canon.layers[0].assign.ctw[0] ^= 1;
  canon.layers[0].assign.complemented[0] ^= 1;
  core::opt::run_pipeline(canon, {"canonicalize_complement"});
  EXPECT_TRUE(assign_equal(canon.layers[0].assign, tl.assign));
  EXPECT_EQ(canon.layers[0].assign.record.m, tl.m);

  // A record solved at another m is not used: the layer is re-solved at
  // its own m, with the same result.
  f.opt.opt_passes.clear();
  const core::DeploymentPlan untuned =
      core::compile_plan(*f.net, f.opt, f.train());
  core::DeploymentPlan stale = tuned;
  stale.layers[0].assign.record = untuned.layers[0].assign.record;
  ASSERT_NE(stale.layers[0].assign.record.m, tl.m);
  core::opt::run_pipeline(stale, {"canonicalize_complement"});
  EXPECT_TRUE(assign_equal(stale.layers[0].assign, tl.assign));
  EXPECT_EQ(stale.layers[0].assign.record.m, tl.m);
}

TEST(OptPipeline, PwtSchemesAreLeftUntouched) {
  Fixture f = make_fixture(core::Scheme::VAWOStarPWT);
  const core::DeploymentPlan base =
      core::compile_plan(*f.net, f.opt, f.train());
  Fixture g = make_fixture(core::Scheme::VAWOStarPWT);
  g.opt.opt_passes = kAllPasses;
  const core::DeploymentPlan opt =
      core::compile_plan(*g.net, g.opt, g.train());
  // All four passes skip PWT schemes (compile-time sharing would change
  // the tuning head-room and counters); only provenance differs.
  EXPECT_TRUE(assign_equal(opt.layers[0].assign, base.layers[0].assign));
  EXPECT_EQ(opt.layers[0].m, base.layers[0].m);
  EXPECT_EQ(opt.total_offset_registers(), base.total_offset_registers());
  EXPECT_EQ(opt.passes_applied, core::opt::registered_passes());
}

TEST(OptPipeline, ChecksRejectMalformedPwtPlans) {
  // Every pass's run() returns early under PWT, so a malformed PWT plan
  // reaches the checks untouched: check_layer_geometry must reject the
  // first three rows (no pass's own check() looks at them) and the
  // passes' check() the last two.
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
          {"dead-column mask of the wrong size",
           [](core::PlanLayer& pl) {
             pl.dead_cols.assign(static_cast<std::size_t>(pl.lq.cols + 1),
                                 0);
           }},
          {"no offset register",
           [](core::PlanLayer& pl) { pl.offset_registers = 0; }},
          {"groups_per_col off by one",
           [](core::PlanLayer& pl) { ++pl.assign.groups_per_col; }},
          {"masked column with a nonzero offset",
           [](core::PlanLayer& pl) {
             // Column 0 canonically dead but for its first group's offset.
             pl.dead_cols.assign(static_cast<std::size_t>(pl.lq.cols), 0);
             pl.dead_cols[0] = 1;
             for (std::int64_t r = 0; r < pl.lq.rows; ++r) {
               const auto i = static_cast<std::size_t>(r * pl.lq.cols);
               pl.lq.q[i] = pl.lq.zero;
               pl.assign.ctw[i] = pl.lq.zero;
             }
             for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
               const auto gi = static_cast<std::size_t>(g * pl.lq.cols);
               pl.assign.offsets[gi] = 0.0f;
               pl.assign.complemented[gi] = 0;
             }
             pl.assign.offsets[0] = 1.0f;
           }},
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
  EXPECT_EQ(loaded->passes_applied, plan.passes_applied);
  EXPECT_EQ(loaded->layers[0].m, plan.layers[0].m);
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

TEST(OptPlanIo, RejectsTamperedProvenance) {
  Fixture f = make_fixture(core::Scheme::VAWOStar);
  f.opt.opt_passes = "color_offset_registers";
  const core::DeploymentPlan plan =
      core::compile_plan(*f.net, f.opt, f.train());
  std::string bytes = save_bytes(plan, 3);
  ASSERT_FALSE(plan.passes_applied.empty());
  bytes.back() ^= 0x01;  // last byte of the last recorded pass name
  std::istringstream in(bytes, std::ios::binary);
  EXPECT_THROW(core::DeploymentPlan::load(in, 3, "test"), core::PlanError);
}
