// DeploymentPlan serialization, the RDO_PLAN_CACHE_DIR / RDO_LUT_CACHE_DIR
// caches, and the shared codec (core/codec.h) behind all three on-disk
// formats: its cross-process-safe atomic publish and its typed rejection
// of malformed streams, checked for the model, LUT and plan files alike.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "core/check.h"
#include "core/codec.h"
#include "core/plan.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "obs/envvar.h"
#include "obs/metrics.h"
#include "quant/act_quant.h"
#include "rram/rlut.h"

using namespace rdo;

namespace {

namespace fs = std::filesystem;

/// Scoped environment override (POSIX setenv/unsetenv; tests are
/// single-process and gtest runs cases sequentially).
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    const char* old = rdo::obs::env_knob(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// Fresh empty directory under the system temp dir, removed on scope
/// exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("rdo_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_.fetch_add(1)));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static std::atomic<int> counter_;
  fs::path dir_;
};
std::atomic<int> TempDir::counter_{0};

struct Fixture {
  std::unique_ptr<nn::Sequential> net;
  nn::Tensor images;
  std::vector<int> labels;
  core::DeployOptions opt;

  [[nodiscard]] nn::DataView train() const { return {&images, &labels}; }
};

/// Tiny deterministic compile fixture: one Dense layer, VAWO* so the
/// gradient/offset/complement sections are all populated, a cheap LUT
/// protocol. With `act_quant`, two Dense layers each behind an ActQuant,
/// so the plan also carries an activation calibration.
Fixture make_fixture(double sigma = 0.5, bool act_quant = false) {
  Fixture f;
  nn::Rng rng(11);
  f.net = std::make_unique<nn::Sequential>();
  if (act_quant) {
    f.net->emplace<quant::ActQuant>(8);
    f.net->emplace<nn::Dense>(6, 5, rng);
    f.net->emplace<nn::ReLU>();
    f.net->emplace<quant::ActQuant>(8);
    f.net->emplace<nn::Dense>(5, 4, rng);
  } else {
    f.net->emplace<nn::Dense>(6, 4, rng);
  }
  f.images = nn::Tensor({12, 6});
  for (std::int64_t i = 0; i < f.images.size(); ++i) {
    f.images[i] = 0.2f * static_cast<float>(i % 7) - 0.6f;
  }
  for (int i = 0; i < 12; ++i) f.labels.push_back(i % 4);
  f.opt.scheme = core::Scheme::VAWOStar;
  f.opt.weight_bits = 4;
  f.opt.offsets.m = 2;
  f.opt.offsets.offset_bits = 4;
  f.opt.variation.sigma = sigma;
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

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Misses and save failures of the plan cache since construction, read
/// from the process-wide deploy_plan_cache_* counters.
struct PlanCacheDelta {
  obs::Counter& misses =
      obs::global_metrics().counter("deploy_plan_cache_misses");
  obs::Counter& save_failures =
      obs::global_metrics().counter("deploy_plan_cache_save_failures");
  std::int64_t misses0 = misses.value();
  std::int64_t save_failures0 = save_failures.value();

  [[nodiscard]] std::int64_t missed() const {
    return misses.value() - misses0;
  }
  [[nodiscard]] std::int64_t save_failed() const {
    return save_failures.value() - save_failures0;
  }
};

/// The save of `plan` with one field of its first layer changed by
/// `patch`; checks that the change is one byte of the clean save.
std::string one_byte_patch(
    const core::DeploymentPlan& plan, std::uint64_t fp,
    const std::function<void(core::PlanLayer&)>& patch) {
  core::DeploymentPlan p = plan;
  patch(p.layers.front());
  const std::string clean = save_bytes(plan, fp);
  std::string bytes = save_bytes(p, fp);
  EXPECT_EQ(bytes.size(), clean.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < std::min(bytes.size(), clean.size()); ++i) {
    differ += bytes[i] != clean[i] ? 1 : 0;
  }
  EXPECT_EQ(differ, 1u);
  return bytes;
}

/// The PlanError message of loading `bytes`, or "" when they load.
std::string load_error(const std::string& bytes, std::uint64_t fp) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)core::DeploymentPlan::load(in, fp, "patched");
  } catch (const core::PlanError& e) {
    return e.what();
  }
  return "";
}

/// The fixture's compiled VAWO* plan, saved, with its fingerprint.
struct SavedFixture {
  std::string bytes;
  std::uint64_t fp = 0;
};

SavedFixture saved_fixture() {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  return {save_bytes(plan, fp), fp};
}

// Byte offset in a saved plan of the pass list that ends the options
// block: u32 magic and u64 fingerprint (12), then in write order u32
// scheme, i32 m, i32 offset_bits, u32 cell kind (28), f64 on/off ratio,
// sigma, ddv fraction (52), u32 scope (56), f64 stuck HRS and LRS rates
// (72), i32 weight bits, i32 PWT epochs (80), i64 PWT max samples (88),
// u8 mean_init, u8 penalize_bias (90), i32 LUT K, i32 LUT J (98), i64
// gradient samples (106) and u64 seed (114).
constexpr std::size_t kPassListAt = 114;

/// The plan magic of the previous layout, "RDP3".
constexpr std::uint32_t kRdp3Magic = 0x52445033;

/// `bytes` with its leading magic replaced by the previous layout's.
std::string with_rdp3_magic(std::string bytes) {
  std::memcpy(bytes.data(), &kRdp3Magic, sizeof kRdp3Magic);
  return bytes;
}

/// `bytes` with the T at `at`, which must hold `stored`, set to `v`.
template <typename T>
std::string patch_at(std::string bytes, std::size_t at, T stored, T v) {
  T old{};
  std::memcpy(&old, bytes.data() + at, sizeof old);
  EXPECT_EQ(old, stored) << "at byte " << at;
  std::memcpy(bytes.data() + at, &v, sizeof v);
  return bytes;
}

bool has_tmp_files(const fs::path& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

TEST(PlanIo, SaveLoadRoundTripIsByteIdentical) {
  const Fixture f = make_fixture(0.5, /*act_quant=*/true);
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  const std::string bytes = save_bytes(plan, fp);

  std::istringstream in(bytes, std::ios::binary);
  const auto loaded = core::DeploymentPlan::load(in, fp, "roundtrip");
  ASSERT_TRUE(loaded.has_value());

  // save(load(save(p))) must be bit-identical to save(p).
  EXPECT_EQ(save_bytes(*loaded, fp), bytes);

  // Structure survives.
  ASSERT_EQ(plan.layers.size(), 2u);
  ASSERT_EQ(loaded->layers.size(), plan.layers.size());
  EXPECT_EQ(loaded->layers[0].lq.q, plan.layers[0].lq.q);
  EXPECT_EQ(loaded->layers[0].assign.ctw, plan.layers[0].assign.ctw);
  EXPECT_EQ(loaded->layers[0].assign.offsets, plan.layers[0].assign.offsets);
  EXPECT_EQ(loaded->lut.max_weight(), plan.lut.max_weight());

  // What the file does not store, the loader derives: every layer's
  // weight bits and groups per column, as compiled.
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    SCOPED_TRACE(li);
    EXPECT_EQ(loaded->layers[li].lq.bits, plan.layers[li].lq.bits);
    EXPECT_EQ(loaded->layers[li].assign.groups_per_col,
              plan.layers[li].assign.groups_per_col);
    // The solve objective is not stored: a loaded plan holds 0.
    EXPECT_EQ(loaded->layers[li].assign.total_objective, 0.0);
  }
  // One calibration range per ActQuant layer, as compiled.
  ASSERT_EQ(plan.act_max_abs.size(), 2u);
  EXPECT_EQ(loaded->act_max_abs, plan.act_max_abs);

  // compile_stats is not serialized: a loaded plan reports zero compile
  // time (that is what a cache hit means).
  EXPECT_EQ(loaded->compile_stats.lut_build_s, 0.0);
  EXPECT_EQ(loaded->compile_stats.prepare_s, 0.0);
  EXPECT_EQ(loaded->compile_stats.vawo_solve_s, 0.0);
}

TEST(PlanIo, LoadedPlanEvaluatesIdenticallyToCompiled) {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  std::istringstream in(save_bytes(plan, fp), std::ios::binary);
  const auto loaded = core::DeploymentPlan::load(in, fp, "parity");
  ASSERT_TRUE(loaded.has_value());

  core::EffectiveWeightBackend a(plan, *f.net);
  core::EffectiveWeightBackend b(*loaded, *f.net);
  for (std::uint64_t cycle = 0; cycle < 3; ++cycle) {
    a.program_cycle(cycle);
    b.program_cycle(cycle);
    a.tune(f.train());
    b.tune(f.train());
    EXPECT_EQ(a.evaluate(f.train(), 8), b.evaluate(f.train(), 8))
        << "cycle " << cycle;
  }
}

TEST(PlanIo, StaleFingerprintReturnsNulloptWithoutThrowing) {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  std::istringstream in(save_bytes(plan, fp), std::ios::binary);
  EXPECT_FALSE(
      core::DeploymentPlan::load(in, fp ^ 0xBADF00Dull, "stale").has_value());
}

TEST(PlanIo, TruncationsAndTrailingBytesThrowTyped) {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  const std::string bytes = save_bytes(plan, fp);

  // Every strict prefix must throw PlanError (the stored fingerprint
  // still matches, so the stale path never masks the truncation).
  for (std::size_t len : {std::size_t{0}, std::size_t{3}, std::size_t{12},
                          std::size_t{60}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::istringstream in(bytes.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)core::DeploymentPlan::load(in, fp, "trunc"),
                 core::PlanError)
        << "prefix length " << len;
  }

  std::istringstream trailing(bytes + "\x7f", std::ios::binary);
  EXPECT_THROW((void)core::DeploymentPlan::load(trailing, fp, "trailing"),
               core::PlanError);

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x5A;
  // A file of the previous layout is refused on its magic, before its
  // fingerprint is read.
  for (const std::string& magic : {bad_magic, with_rdp3_magic(bytes)}) {
    std::istringstream bm(magic, std::ios::binary);
    EXPECT_THROW((void)core::DeploymentPlan::load(bm, fp, "magic"),
                 core::PlanError);
    EXPECT_NE(load_error(magic, fp).find("bad magic"), std::string::npos)
        << load_error(magic, fp);
  }
}

TEST(PlanIo, StoredOptionsFailingCheckOptionsRaisePlanError) {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  std::string bytes = save_bytes(plan, fp);
  // Header: u32 magic, u64 fingerprint, u32 scheme, i32 m, then the i32
  // offset register width at byte 20.
  constexpr std::size_t kOffsetBitsAt = 20;
  std::int32_t stored = 0;
  std::memcpy(&stored, bytes.data() + kOffsetBitsAt, sizeof stored);
  ASSERT_EQ(stored, f.opt.offsets.offset_bits);
  const std::int32_t hostile = core::kMaxOffsetBits + 1;
  std::memcpy(bytes.data() + kOffsetBitsAt, &hostile, sizeof hostile);

  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)core::DeploymentPlan::load(in, fp, "patched");
    ADD_FAILURE() << "a plan with offset_bits = " << hostile << " loaded";
  } catch (const core::PlanError& e) {
    EXPECT_NE(std::string(e.what()).find("offset_bits = 17"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanIo, ComplementFlagUnderANonComplementSchemeRaisesPlanError) {
  // Only a VAWO* solve sets the flag, and the optimizer's geometry check
  // rejects it under any other scheme, so loading it would hand
  // run_pipeline a ContractViolation.
  Fixture f = make_fixture();
  f.opt.scheme = core::Scheme::VAWO;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  ASSERT_EQ(plan.layers.front().assign.complemented[0], 0);
  const std::string bytes = one_byte_patch(
      plan, fp, [](core::PlanLayer& pl) { pl.assign.complemented[0] = 1; });
  EXPECT_NE(load_error(bytes, fp).find(
                "complement flag under a non-complement scheme"),
            std::string::npos)
      << load_error(bytes, fp);
}

TEST(PlanIo, StoredOffsetTheRegisterCannotHoldRaisesPlanError) {
  // A 4-bit register holds the integers in [-8, 7]. The plain scheme
  // stores offset 0 everywhere; each patch rewrites one float's top byte.
  Fixture f = make_fixture();
  f.opt.scheme = core::Scheme::Plain;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  ASSERT_EQ(plan.layers.front().assign.offsets[0], 0.0f);
  const auto with_offset = [&](float b) {
    return one_byte_patch(
        plan, fp, [b](core::PlanLayer& pl) { pl.assign.offsets[0] = b; });
  };
  EXPECT_EQ(load_error(with_offset(-8.0f), fp), "");
  for (const float b : {0.5f, 8.0f}) {
    const std::string err = load_error(with_offset(b), fp);
    EXPECT_NE(err.find("offset outside the register's integer range"),
              std::string::npos)
        << "offset " << b << ": " << err;
  }
}

TEST(PlanIo, EmbeddedLutWithANegativeVarianceRaisesPlanError) {
  // The embedded LUT (u64 byte count, then magic, fingerprint, entry
  // count, the means and the variances) goes through RLut::load's value
  // checks; its LutError reaches the caller as PlanError.
  const SavedFixture s = saved_fixture();
  std::uint64_t passes = 0;
  std::memcpy(&passes, s.bytes.data() + kPassListAt, sizeof passes);
  ASSERT_EQ(passes, 0u) << "the fixture compiles with no optimizer passes";
  const std::size_t lut_at = kPassListAt + 8 + passes + 8;
  std::uint64_t entries = 0;
  std::memcpy(&entries, s.bytes.data() + lut_at + 12, sizeof entries);
  const std::size_t var1_at = lut_at + 20 + (entries + 1) * sizeof(double);
  double var1 = 0.0;
  std::memcpy(&var1, s.bytes.data() + var1_at, sizeof var1);
  ASSERT_GT(var1, 0.0);
  const std::string err =
      load_error(patch_at(s.bytes, var1_at, var1, -var1), s.fp);
  EXPECT_NE(err.find("negative variance"), std::string::npos) << err;
}

TEST(PlanIo, ByteFlipsNeverEscapeAsAnythingButPlanError) {
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  const std::string bytes = save_bytes(plan, fp);
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::istringstream in(mutated, std::ios::binary);
    try {
      // A flip may still parse (payload floats), read as stale (the
      // fingerprint bytes) or be rejected — but only ever as PlanError.
      (void)core::DeploymentPlan::load(in, fp, "flip");
    } catch (const core::PlanError&) {
    }
  }
}

TEST(PlanCache, WarmStartLoadsBitIdenticalPlanAndSkipsCompile) {
  const TempDir dir("plan_cache");
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", dir.path().string());
  const Fixture f = make_fixture();

  const PlanCacheDelta cold_delta;
  const core::DeploymentPlan cold = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(cold_delta.missed(), 1);
  EXPECT_EQ(cold.compile_stats.plan_cache_hits, 0);
  EXPECT_EQ(cold_delta.save_failed(), 0);
  EXPECT_GT(cold.compile_stats.prepare_s, 0.0);
  EXPECT_GT(cold.compile_stats.vawo_solve_s, 0.0);

  const PlanCacheDelta warm_delta;
  const core::DeploymentPlan warm = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  // Warm-start proof: the expensive phases did not run at all...
  EXPECT_EQ(warm.compile_stats.plan_cache_hits, 1);
  EXPECT_EQ(warm_delta.missed(), 0);
  EXPECT_EQ(warm.compile_stats.lut_build_s, 0.0);
  EXPECT_EQ(warm.compile_stats.prepare_s, 0.0);
  EXPECT_EQ(warm.compile_stats.vawo_solve_s, 0.0);
  // ...and the loaded plan is bit-identical to the compiled one.
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  EXPECT_EQ(save_bytes(warm, fp), save_bytes(cold, fp));

  // Different options land in a different cache entry, not a stale hit.
  Fixture g = make_fixture(/*sigma=*/0.8);
  const PlanCacheDelta other_delta;
  const core::DeploymentPlan other = core::compile_plan(*g.net, g.opt,
                                                        g.train());
  EXPECT_EQ(other_delta.missed(), 1);
  EXPECT_EQ(other.compile_stats.plan_cache_hits, 0);
  EXPECT_FALSE(has_tmp_files(dir.path()));
}

// A caller that already holds the fingerprint keys the cache with it:
// same file name, same bytes, and either form reads the stored plan.
TEST(PlanCache, FingerprintOverloadKeysTheSameEntry) {
  const Fixture f = make_fixture();
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fp));
  const std::string name = std::string("plan_") + hex + ".bin";

  std::string three_arg_bytes;
  {
    const TempDir dir("plan_fp_3arg");
    const EnvGuard guard("RDO_PLAN_CACHE_DIR", dir.path().string());
    (void)core::compile_plan(*f.net, f.opt, f.train());
    three_arg_bytes = slurp(dir.path() / name);
  }
  ASSERT_FALSE(three_arg_bytes.empty());

  const TempDir dir("plan_fp_4arg");
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", dir.path().string());
  const PlanCacheDelta cold_delta;
  const core::DeploymentPlan cold =
      core::compile_plan(*f.net, f.opt, f.train(), fp);
  EXPECT_EQ(cold_delta.missed(), 1);
  EXPECT_EQ(cold.compile_stats.plan_cache_hits, 0);
  EXPECT_EQ(slurp(dir.path() / name), three_arg_bytes);

  const core::DeploymentPlan warm4 =
      core::compile_plan(*f.net, f.opt, f.train(), fp);
  const core::DeploymentPlan warm3 =
      core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(warm4.compile_stats.plan_cache_hits, 1);
  EXPECT_EQ(warm3.compile_stats.plan_cache_hits, 1);
  EXPECT_EQ(save_bytes(warm4, fp), three_arg_bytes);
  EXPECT_EQ(save_bytes(warm3, fp), three_arg_bytes);

#ifdef RDO_CHECK_PLAN_FINGERPRINT
  // Debug builds check the precondition.
  EXPECT_THROW((void)core::compile_plan(*f.net, f.opt, f.train(), fp ^ 1u),
               core::ContractViolation);
#endif
}

TEST(PlanCache, CorruptEntryIsRecompiledAndHealed) {
  const TempDir dir("plan_heal");
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", dir.path().string());
  const Fixture f = make_fixture();
  const core::DeploymentPlan cold = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());

  // Damage the cache entry: cut it in half, or give it the previous
  // layout's magic, as a cache directory written by an older build holds.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir.path())) entry = e.path();
  ASSERT_FALSE(entry.empty());
  const std::string good = slurp(entry);
  for (const std::string& damaged :
       {good.substr(0, good.size() / 2), with_rdp3_magic(good)}) {
    {
      std::ofstream out(entry, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
    }
    ASSERT_EQ(slurp(entry), damaged);

    const PlanCacheDelta again_delta;
    const core::DeploymentPlan again = core::compile_plan(*f.net, f.opt,
                                                          f.train());
    EXPECT_EQ(again_delta.missed(), 1);
    EXPECT_EQ(again.compile_stats.plan_cache_hits, 0);
    EXPECT_EQ(save_bytes(again, fp), save_bytes(cold, fp));
    // The rebuilt plan was re-saved over the damaged file.
    EXPECT_EQ(slurp(entry), good);
    const core::DeploymentPlan warm = core::compile_plan(*f.net, f.opt,
                                                         f.train());
    EXPECT_EQ(warm.compile_stats.plan_cache_hits, 1);
  }
}

TEST(PlanCache, SaveFailureIsCountedNotFatal) {
  const TempDir dir("plan_savefail");
  // A path component that is a regular file: open of the temp file fails.
  const fs::path blocker = dir.path() / "blocker";
  { std::ofstream f(blocker); }
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", (blocker / "sub").string());
  const Fixture f = make_fixture();
  const PlanCacheDelta delta;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(delta.missed(), 1);
  EXPECT_EQ(delta.save_failed(), 1);
  EXPECT_FALSE(plan.layers.empty());
}

TEST(LutCache, CountersTrackHitsAndMisses) {
  const TempDir dir("lut_cache");
  const EnvGuard guard("RDO_LUT_CACHE_DIR", dir.path().string());
  obs::MetricsRegistry& m = obs::global_metrics();
  obs::Counter& hits = m.counter("deploy_lut_cache_hits");
  obs::Counter& misses = m.counter("deploy_lut_cache_misses");
  obs::Counter& save_failures = m.counter("deploy_lut_cache_save_failures");
  const Fixture f = make_fixture();

  std::int64_t h0 = hits.value(), m0 = misses.value();
  (void)core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(misses.value() - m0, 1);
  EXPECT_EQ(hits.value() - h0, 0);

  h0 = hits.value();
  m0 = misses.value();
  const std::int64_t s0 = save_failures.value();
  (void)core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(hits.value() - h0, 1);
  EXPECT_EQ(misses.value() - m0, 0);
  EXPECT_EQ(save_failures.value() - s0, 0);
}

TEST(LutCache, EntryOfTheWrongSizeIsRebuiltAndResaved) {
  // A cache entry under the right fingerprint whose entry count does not
  // match the weight bits is corrupt: the compile rebuilds it, counts a
  // miss and re-saves it, so the next compile hits.
  const TempDir dir("lut_cache_size");
  const EnvGuard guard("RDO_LUT_CACHE_DIR", dir.path().string());
  obs::MetricsRegistry& m = obs::global_metrics();
  obs::Counter& hits = m.counter("deploy_lut_cache_hits");
  obs::Counter& misses = m.counter("deploy_lut_cache_misses");
  const Fixture f = make_fixture();
  const core::DeploymentPlan cold =
      core::compile_plan(*f.net, f.opt, f.train());
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir.path())) entry = e.path();
  ASSERT_FALSE(entry.empty());
  // The entry is named rlut_<fingerprint in hex>.bin.
  const std::uint64_t fp =
      std::stoull(entry.stem().string().substr(5), nullptr, 16);
  const rram::WeightProgrammer wider({rram::CellKind::SLC, 200.0},
                                     f.opt.weight_bits + 1, {0.5, 0.0});
  rram::RLut::build_analytic(wider).save(entry.string(), fp);

  std::int64_t h0 = hits.value(), m0 = misses.value();
  const core::DeploymentPlan rebuilt =
      core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(hits.value() - h0, 0);
  EXPECT_EQ(misses.value() - m0, 1);
  EXPECT_EQ(rebuilt.lut.max_weight(), cold.lut.max_weight());

  h0 = hits.value();
  m0 = misses.value();
  (void)core::compile_plan(*f.net, f.opt, f.train());
  EXPECT_EQ(hits.value() - h0, 1);
  EXPECT_EQ(misses.value() - m0, 0);
}

TEST(DeployStats, CacheCountersMerge) {
  core::DeployStats a;
  a.plan_cache_hits = 1;
  core::DeployStats b;
  b.plan_cache_hits = 3;
  a.merge(b);
  EXPECT_EQ(a.plan_cache_hits, 4);
}

TEST(TmpSuffix, EncodesPidAndNeverRepeats) {
  const std::string a = core::codec::unique_tmp_suffix();
  const std::string b = core::codec::unique_tmp_suffix();
  EXPECT_NE(a, b);
  EXPECT_NE(a.find(".tmp." + std::to_string(::getpid()) + "."),
            std::string::npos);
}

TEST(Publish, FailureRemovesTempFileAndLeavesTargetAlone) {
  const TempDir dir("publish_fail");
  const std::string path = (dir.path() / "doc.bin").string();
  EXPECT_THROW(core::codec::publish(path, "test",
                                    [](std::ostream& out) {
                                      out << "partial";
                                      throw std::runtime_error("mid-write");
                                    }),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path));

  // Rename onto a non-empty directory fails after the temp file is
  // complete.
  const fs::path blocker = dir.path() / "blocker";
  fs::create_directories(blocker / "child");
  EXPECT_THROW(core::codec::publish(blocker.string(), "test",
                                    [](std::ostream& out) { out << "doc"; }),
               std::runtime_error);
  EXPECT_TRUE(fs::is_directory(blocker));
  EXPECT_FALSE(has_tmp_files(dir.path()));
}

// ---------------------------------------------------------------------------
// The three on-disk formats behind the one codec. Each Format wraps one
// format's public save/load API; a loader's own typed error (SerializeError,
// LutError, PlanError) is rethrown as TypedLoadError, so one test body
// covers all three and any other exception type fails the test.

namespace {

struct TypedLoadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Format {
  const char* name;
  /// One valid document.
  std::string (*document)();
  /// `doc` with one declared count larger than the bytes that follow it.
  std::string (*oversize)(std::string doc);
  void (*save)(const std::string& path);
  /// True on a loaded document, false on a stale one.
  bool (*load)(std::istream& in, const std::string& source);
  /// False when the file does not exist (or is stale).
  bool (*load_path)(const std::string& path);
};

void PrintTo(const Format& f, std::ostream* os) { *os << f.name; }

/// Run one load, rethrowing the format's typed error `E` as
/// TypedLoadError.
template <typename E, typename Fn>
bool typed(Fn&& fn) {
  try {
    return fn();
  } catch (const E& e) {
    throw TypedLoadError(e.what());
  }
}

void put_u64(std::string& doc, std::size_t offset, std::uint64_t v) {
  ASSERT_LE(offset + sizeof(v), doc.size());
  std::memcpy(doc.data() + offset, &v, sizeof(v));
}

std::uint64_t get_u64(const std::string& doc, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, doc.data() + offset, sizeof(v));
  return v;
}

// Model parameters ("RDO2"): the fuzz/test fixture network.
std::unique_ptr<nn::Sequential> make_model() {
  nn::Rng rng(1);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Dense>(4, 8, rng);
  net->emplace<nn::Dense>(8, 3, rng);
  return net;
}

nn::Sequential& saved_model() {
  static const std::unique_ptr<nn::Sequential> net = make_model();
  return *net;
}

const Format kModel{
    "model",
    [] {
      const TempDir dir("model_doc");
      const fs::path path = dir.path() / "model.bin";
      nn::save_params(saved_model(), path.string());
      return slurp(path);
    },
    // Cut right after the first tensor's length prefix (header 20 bytes):
    // it declares 32 floats and none follow.
    [](std::string doc) { return doc.substr(0, 28); },
    [](const std::string& path) { nn::save_params(saved_model(), path); },
    [](std::istream& in, const std::string& source) {
      return typed<nn::SerializeError>([&] {
        nn::load_params(*make_model(), in, source);
        return true;
      });
    },
    [](const std::string& path) {
      return typed<nn::SerializeError>(
          [&] { return nn::load_params(*make_model(), path); });
    }};

// Statistical LUT ("RLU2").
const rram::WeightProgrammer& lut_prog() {
  static const rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 4,
                                           {0.5, 0.0});
  return prog;
}
const rram::RLut& saved_lut() {
  static const rram::RLut lut = rram::RLut::build_analytic(lut_prog());
  return lut;
}
std::uint64_t lut_fp() { return rram::RLut::fingerprint(lut_prog(), 4, 4, 1); }

const Format kLut{
    "lut",
    [] {
      std::ostringstream out(std::ios::binary);
      saved_lut().save(out, lut_fp());
      return out.str();
    },
    // Entry count (after magic and fingerprint) one past the payload.
    [](std::string doc) {
      put_u64(doc, 12, get_u64(doc, 12) + 1);
      return doc;
    },
    [](const std::string& path) { saved_lut().save(path, lut_fp()); },
    [](std::istream& in, const std::string& source) {
      return typed<rram::LutError>([&] {
        rram::RLut out;
        return rram::RLut::load(in, lut_fp(), out, source);
      });
    },
    [](const std::string& path) {
      return typed<rram::LutError>([&] {
        rram::RLut out;
        return rram::RLut::load(path, lut_fp(), out);
      });
    }};

// Deployment plan ("RDP4"), compiled once from make_fixture().
struct SavedPlan {
  Fixture f = make_fixture();
  core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt, f.train());
  std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
};
const SavedPlan& saved_plan() {
  static const SavedPlan p;
  return p;
}

const Format kPlan{
    "plan",
    [] { return save_bytes(saved_plan().plan, saved_plan().fp); },
    // Embedded-LUT byte count: magic 4 + fingerprint 8 + 123 fixed-width
    // option bytes + the 8-byte length of the empty pass list.
    [](std::string doc) {
      put_u64(doc, 143, std::uint64_t{1} << 40);
      return doc;
    },
    [](const std::string& path) {
      saved_plan().plan.save(path, saved_plan().fp);
    },
    [](std::istream& in, const std::string& source) {
      return typed<core::PlanError>([&] {
        return core::DeploymentPlan::load(in, saved_plan().fp, source)
            .has_value();
      });
    },
    [](const std::string& path) {
      return typed<core::PlanError>([&] {
        return core::DeploymentPlan::load(path, saved_plan().fp).has_value();
      });
    }};

/// A stream buffer over `bytes` that cannot seek (std::streambuf's
/// default seekoff/seekpos fail), like a pipe.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

class CodecFormat : public ::testing::TestWithParam<Format> {};

}  // namespace

TEST_P(CodecFormat, ConcurrentSaversNeverYieldCorruptLoad) {
  const Format& fmt = GetParam();
  (void)fmt.document();  // build the shared fixture before the threads
  const TempDir dir(std::string(fmt.name) + "_race");
  const std::string path = (dir.path() / "doc.bin").string();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> savers;
  savers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    savers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        try {
          fmt.save(path);
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread loader([&] {
    while (!stop.load()) {
      try {
        // Must observe either no file yet (false before the first rename
        // lands) or a complete, matching document — never a torn write.
        (void)fmt.load_path(path);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    }
  });
  for (auto& t : savers) t.join();
  stop.store(true);
  loader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(fmt.load_path(path));
  EXPECT_FALSE(has_tmp_files(dir.path()));
}

TEST_P(CodecFormat, MalformedStreamsThrowTypedErrorNamingSource) {
  const Format& fmt = GetParam();
  const std::string source = std::string("malformed-") + fmt.name;
  const auto expect_rejected = [&](std::istream& in, const char* what) {
    try {
      (void)fmt.load(in, source);
      ADD_FAILURE() << what << " accepted";
    } catch (const TypedLoadError& e) {
      EXPECT_NE(std::string(e.what()).find(source), std::string::npos)
          << what << ": " << e.what();
    }
  };

  std::istringstream valid(fmt.document(), std::ios::binary);
  EXPECT_TRUE(fmt.load(valid, source));

  // A valid document behind a buffer that cannot seek: the byte budget
  // cannot be measured, so nothing in it may be believed.
  UnseekableBuf buf(fmt.document());
  std::istream unseekable(&buf);
  expect_rejected(unseekable, "non-seekable stream");

  std::istringstream oversized(fmt.oversize(fmt.document()),
                               std::ios::binary);
  expect_rejected(oversized, "count beyond the remaining bytes");
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecFormat,
                         ::testing::Values(kModel, kLut, kPlan),
                         [](const ::testing::TestParamInfo<Format>& info) {
                           return std::string(info.param.name);
                         });

#ifdef CACHE_WORKER_BIN
namespace {

std::string run_cmd(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  std::string out;
  char buf[256];
  while (p != nullptr && std::fgets(buf, sizeof(buf), p) != nullptr) {
    out += buf;
  }
  if (p != nullptr) {
    EXPECT_EQ(::pclose(p), 0) << cmd << "\n" << out;
  }
  return out;
}

}  // namespace

// Satellite integration test: N worker *processes* share one
// RDO_LUT_CACHE_DIR + RDO_PLAN_CACHE_DIR, compile the identical config
// concurrently, and every one must report the identical plan digest with
// no stray temp files left behind. A warm rerun must hit the cache.
TEST(CacheMultiProcess, ConcurrentWorkersAgreeAndLeaveNoTempFiles) {
  const TempDir dir("mp_cache");
  const std::string env = "RDO_LUT_CACHE_DIR='" + dir.path().string() +
                          "' RDO_PLAN_CACHE_DIR='" + dir.path().string() +
                          "' ";
  const std::string worker = std::string(CACHE_WORKER_BIN);

  // Launch 3 concurrent cold workers through one shell.
  const std::string out = run_cmd(
      env + "'" + worker + "' & p1=$!; " +
      env + "'" + worker + "' & p2=$!; " +
      env + "'" + worker + "' & p3=$!; " +
      "wait $p1 && wait $p2 && wait $p3");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> digests;
  while (std::getline(lines, line)) {
    if (line.rfind("digest ", 0) == 0) digests.push_back(line);
  }
  ASSERT_EQ(digests.size(), 3u) << out;
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
  EXPECT_FALSE(has_tmp_files(dir.path()));

  // Warm rerun: same digest, and the worker reports a plan cache hit.
  const std::string warm = run_cmd(env + "'" + worker + "'");
  EXPECT_NE(warm.find(digests[0]), std::string::npos) << warm;
  EXPECT_NE(warm.find("deploy_plan_cache_hits 1"), std::string::npos)
      << warm;
  EXPECT_FALSE(has_tmp_files(dir.path()));
}
#endif  // CACHE_WORKER_BIN
