// DeploymentPlan serialization, the RDO_PLAN_CACHE_DIR / RDO_LUT_CACHE_DIR
// caches, and the shared codec (core/codec.h) behind all three on-disk
// formats: its cross-process-safe atomic publish and its typed rejection
// of malformed streams, checked for the model, LUT and plan files alike.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/codec.h"
#include "core/plan.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "obs/envvar.h"
#include "obs/recorder.h"
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
/// protocol.
Fixture make_fixture(double sigma = 0.5) {
  Fixture f;
  nn::Rng rng(11);
  f.net = std::make_unique<nn::Sequential>();
  f.net->emplace<nn::Dense>(6, 4, rng);
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
  const Fixture f = make_fixture();
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
  ASSERT_EQ(loaded->layers.size(), plan.layers.size());
  EXPECT_EQ(loaded->layers[0].lq.q, plan.layers[0].lq.q);
  EXPECT_EQ(loaded->layers[0].assign.ctw, plan.layers[0].assign.ctw);
  EXPECT_EQ(loaded->layers[0].assign.offsets, plan.layers[0].assign.offsets);
  EXPECT_EQ(loaded->lut.max_weight(), plan.lut.max_weight());

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
  std::istringstream bm(bad_magic, std::ios::binary);
  EXPECT_THROW((void)core::DeploymentPlan::load(bm, fp, "magic"),
               core::PlanError);
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

  const core::DeploymentPlan cold = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(cold.compile_stats.plan_cache_misses, 1);
  EXPECT_EQ(cold.compile_stats.plan_cache_hits, 0);
  EXPECT_EQ(cold.compile_stats.plan_cache_save_failures, 0);
  EXPECT_GT(cold.compile_stats.prepare_s, 0.0);
  EXPECT_GT(cold.compile_stats.vawo_solve_s, 0.0);

  const core::DeploymentPlan warm = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  // Warm-start proof: the expensive phases did not run at all...
  EXPECT_EQ(warm.compile_stats.plan_cache_hits, 1);
  EXPECT_EQ(warm.compile_stats.plan_cache_misses, 0);
  EXPECT_EQ(warm.compile_stats.lut_build_s, 0.0);
  EXPECT_EQ(warm.compile_stats.prepare_s, 0.0);
  EXPECT_EQ(warm.compile_stats.vawo_solve_s, 0.0);
  // ...and the loaded plan is bit-identical to the compiled one.
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());
  EXPECT_EQ(save_bytes(warm, fp), save_bytes(cold, fp));

  // Different options land in a different cache entry, not a stale hit.
  Fixture g = make_fixture(/*sigma=*/0.8);
  const core::DeploymentPlan other = core::compile_plan(*g.net, g.opt,
                                                        g.train());
  EXPECT_EQ(other.compile_stats.plan_cache_misses, 1);
  EXPECT_FALSE(has_tmp_files(dir.path()));
}

TEST(PlanCache, CorruptEntryIsRecompiledAndHealed) {
  const TempDir dir("plan_heal");
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", dir.path().string());
  const Fixture f = make_fixture();
  const core::DeploymentPlan cold = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  const std::uint64_t fp = core::plan_fingerprint(*f.net, f.opt, f.train());

  // Find and damage the cache entry.
  fs::path entry;
  for (const auto& e : fs::directory_iterator(dir.path())) entry = e.path();
  ASSERT_FALSE(entry.empty());
  const std::string good = slurp(entry);
  {
    std::ofstream out(entry, std::ios::binary | std::ios::trunc);
    out.write(good.data(), static_cast<std::streamsize>(good.size() / 2));
  }

  const core::DeploymentPlan again = core::compile_plan(*f.net, f.opt,
                                                        f.train());
  EXPECT_EQ(again.compile_stats.plan_cache_misses, 1);
  EXPECT_EQ(save_bytes(again, fp), save_bytes(cold, fp));
  // The rebuilt plan was re-saved over the damaged file.
  EXPECT_EQ(slurp(entry), good);
  const core::DeploymentPlan warm = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(warm.compile_stats.plan_cache_hits, 1);
}

TEST(PlanCache, SaveFailureIsCountedNotFatal) {
  const TempDir dir("plan_savefail");
  // A path component that is a regular file: open of the temp file fails.
  const fs::path blocker = dir.path() / "blocker";
  { std::ofstream f(blocker); }
  const EnvGuard guard("RDO_PLAN_CACHE_DIR", (blocker / "sub").string());
  const Fixture f = make_fixture();
  const core::DeploymentPlan plan = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(plan.compile_stats.plan_cache_misses, 1);
  EXPECT_EQ(plan.compile_stats.plan_cache_save_failures, 1);
  EXPECT_FALSE(plan.layers.empty());
}

TEST(LutCache, CountersTrackHitsAndMisses) {
  const TempDir dir("lut_cache");
  const EnvGuard guard("RDO_LUT_CACHE_DIR", dir.path().string());
  const Fixture f = make_fixture();
  const core::DeploymentPlan cold = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(cold.compile_stats.lut_cache_misses, 1);
  EXPECT_EQ(cold.compile_stats.lut_cache_hits, 0);
  const core::DeploymentPlan warm = core::compile_plan(*f.net, f.opt,
                                                       f.train());
  EXPECT_EQ(warm.compile_stats.lut_cache_hits, 1);
  EXPECT_EQ(warm.compile_stats.lut_cache_misses, 0);
  EXPECT_EQ(warm.compile_stats.lut_cache_save_failures, 0);
}

TEST(DeployStats, CacheCountersMergeAndSurfaceConditionally) {
  core::DeployStats a;
  a.lut_cache_hits = 1;
  a.plan_cache_misses = 2;
  core::DeployStats b;
  b.lut_cache_hits = 3;
  b.plan_cache_save_failures = 1;
  a.merge(b);
  EXPECT_EQ(a.lut_cache_hits, 4);
  EXPECT_EQ(a.plan_cache_misses, 2);
  EXPECT_EQ(a.plan_cache_save_failures, 1);

  // All-zero stats must emit NO cache counters (committed BENCH
  // baselines were produced without caches and must stay byte-stable).
  obs::Recorder quiet;
  core::add_deploy_cache_counters(quiet, core::DeployStats{});
  EXPECT_EQ(quiet.counters_json().size(), 0u);

  obs::Recorder loud;
  core::add_deploy_cache_counters(loud, a);
  EXPECT_EQ(loud.counter("lut_cache_hits"), 4);
  EXPECT_EQ(loud.counter("plan_cache_misses"), 2);
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

// Deployment plan ("RDP2"), compiled once from make_fixture().
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
  EXPECT_NE(warm.find("plan_cache_hits 1"), std::string::npos) << warm;
  EXPECT_FALSE(has_tmp_files(dir.path()));
}
#endif  // CACHE_WORKER_BIN
