// Regenerate the committed fuzz seed corpus (fuzz/corpus/*).
//
//   make_fuzz_seeds <corpus-root>
//
// Seeds are produced by the real serializers (save_params, RLut::save)
// plus hand-derived corrupt variants (truncations, bad magic, oversized
// header counts, trailing bytes), so every branch of the hardened load
// paths has at least one corpus case from the start. The generator is
// deterministic: regenerating over an existing corpus is byte-identical,
// which the fuzz_seeds_byte_identical ctest (tools/check_fuzz_seeds.cmake)
// enforces against fuzz/corpus/ and tests/data/{rlut,serialize}/.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/plan.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "nn/trainer.h"
#include "rram/rlut.h"

namespace {

namespace fs = std::filesystem;

std::vector<char> slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + p.string());
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& p, const std::vector<char>& bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write " + p.string());
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void spit(const fs::path& p, const std::string& text) {
  spit(p, std::vector<char>(text.begin(), text.end()));
}

/// Derived corrupt variants every binary loader must reject: truncation
/// at several depths, a flipped magic, and trailing garbage.
void corrupt_variants(const fs::path& dir, const std::string& stem,
                      const std::vector<char>& valid) {
  std::vector<char> t = valid;
  t.resize(valid.size() / 2);
  spit(dir / (stem + "_truncated_half.bin"), t);
  t = valid;
  t.resize(valid.size() - 1);
  spit(dir / (stem + "_truncated_tail.bin"), t);
  t = valid;
  t.resize(3);  // shorter than any header
  spit(dir / (stem + "_truncated_header.bin"), t);
  t = valid;
  t[0] ^= 0x5A;
  spit(dir / (stem + "_bad_magic.bin"), t);
  t = valid;
  t.push_back('\x7f');
  t.push_back('\x00');
  spit(dir / (stem + "_trailing.bin"), t);
}

void make_serialize_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  // Must stay in sync with the probe networks in fuzz/fuzz_serialize.cpp
  // and the fixtures consumed by tests/test_serialize.cpp.
  rdo::nn::Rng rng(1);
  rdo::nn::Sequential mlp;
  mlp.emplace<rdo::nn::Dense>(4, 8, rng);
  mlp.emplace<rdo::nn::Dense>(8, 3, rng);
  rdo::nn::save_params(mlp, (dir / "valid_mlp.bin").string());

  rdo::nn::Rng rng2(2);
  rdo::nn::Sequential conv;
  conv.emplace<rdo::nn::Conv2D>(1, 2, 3, 1, 1, rng2);
  conv.emplace<rdo::nn::BatchNorm2D>(2);
  rdo::nn::save_params(conv, (dir / "valid_conv.bin").string());

  const std::vector<char> valid = slurp(dir / "valid_mlp.bin");
  corrupt_variants(dir, "mlp", valid);

  // Header that declares far more tensors than the file holds: the
  // loader must reject it from the byte budget before consuming data.
  std::vector<char> oversized = valid;
  const std::uint64_t huge = 1ull << 60;
  std::memcpy(oversized.data() + 4, &huge, sizeof(huge));
  spit(dir / "mlp_oversized_pcount.bin", oversized);
}

void make_rlut_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  const rdo::rram::CellModel slc{rdo::rram::CellKind::SLC, 200.0};
  const rdo::rram::WeightProgrammer prog(slc, 4, {0.5, 0.0});
  const rdo::rram::RLut lut = rdo::rram::RLut::build_analytic(prog);
  const std::uint64_t fp =
      rdo::rram::RLut::fingerprint(prog, 4, 4, /*seed=*/1);
  lut.save((dir / "valid.bin").string(), fp);

  const std::vector<char> valid = slurp(dir / "valid.bin");
  corrupt_variants(dir, "lut", valid);

  // Entry count far beyond kMaxEntries: must be rejected before resize.
  std::vector<char> huge_n = valid;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(huge_n.data() + 12, &huge, sizeof(huge));
  spit(dir / "lut_huge_n.bin", huge_n);

  // Valid table with a different fingerprint: the stale-cache path
  // (returns false, no throw).
  std::vector<char> stale = valid;
  const std::uint64_t other_fp = fp ^ 0xDEADBEEFull;
  std::memcpy(stale.data() + 4, &other_fp, sizeof(other_fp));
  spit(dir / "lut_stale_fp.bin", stale);

  // Well-formed tables whose values the solver cannot trust. Header: magic
  // 4 + fingerprint 8 + count 8, then the 16 means, then the 16 variances.
  constexpr std::size_t kMeanAt = 20;
  constexpr std::size_t kVarAt = kMeanAt + 16 * sizeof(double);
  const auto with_value = [&](std::size_t at, double v) {
    std::vector<char> t = valid;
    std::memcpy(t.data() + at, &v, sizeof(v));
    return t;
  };
  spit(dir / "lut_nan_mean.bin",
       with_value(kMeanAt + 3 * sizeof(double),
                  std::numeric_limits<double>::quiet_NaN()));
  spit(dir / "lut_inf_var.bin",
       with_value(kVarAt + 5 * sizeof(double),
                  std::numeric_limits<double>::infinity()));
  spit(dir / "lut_negative_var.bin",
       with_value(kVarAt + 7 * sizeof(double), -1.0));
  // Mean 9 below mean 8.
  double mean8 = 0.0;
  std::memcpy(&mean8, valid.data() + kMeanAt + 8 * sizeof(double),
              sizeof(mean8));
  spit(dir / "lut_decreasing_mean.bin",
       with_value(kMeanAt + 9 * sizeof(double), mean8 - 1.0));
}

void make_plan_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  // Tiny but complete plan: one Dense layer, VAWO* so the gradient and
  // offset sections are populated, a cheap 2x2 LUT protocol. Must stay
  // deterministic (fixed seed, fixed data) so regeneration is
  // byte-identical.
  rdo::nn::Rng rng(7);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Dense>(4, 3, rng);

  rdo::nn::Tensor images({8, 4});
  for (std::int64_t i = 0; i < images.size(); ++i) {
    images[i] = 0.125f * static_cast<float>(i % 9) - 0.5f;
  }
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2, 0, 1};
  const rdo::nn::DataView train{&images, &labels};

  rdo::core::DeployOptions opt;
  opt.scheme = rdo::core::Scheme::VAWOStar;
  opt.weight_bits = 4;
  opt.offsets.m = 2;
  opt.offsets.offset_bits = 4;
  opt.lut_k_sets = 2;
  opt.lut_j_cycles = 2;
  opt.grad_samples = 8;
  opt.seed = 7;

  const rdo::core::DeploymentPlan plan =
      rdo::core::compile_plan(net, opt, train);
  const std::uint64_t fp = rdo::core::plan_fingerprint(net, opt, train);
  plan.save((dir / "valid.bin").string(), fp);

  const std::vector<char> valid = slurp(dir / "valid.bin");
  corrupt_variants(dir, "plan", valid);

  // Valid plan with a different fingerprint: the stale-cache path
  // (returns nullopt, no throw).
  std::vector<char> stale = valid;
  const std::uint64_t other_fp = fp ^ 0xDEADBEEFull;
  std::memcpy(stale.data() + 4, &other_fp, sizeof(other_fp));
  spit(dir / "plan_stale_fp.bin", stale);

  // Embedded-LUT blob length far beyond the file: must be rejected by
  // the byte budget before any allocation. The length field sits right
  // after the options block (magic 4 + fingerprint 8 + 102 fixed-width
  // option bytes + the 8-byte length prefix of the empty optimizer pass
  // list — see plan_io.cpp write_options).
  std::vector<char> huge_lut = valid;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(huge_lut.data() + 122, &huge, sizeof(huge));
  spit(dir / "plan_huge_lut.bin", huge_lut);

  // A negative second variance in the embedded LUT, which starts after
  // its length field (byte 130) with a 20-byte header and 16 means:
  // rejected as PlanError.
  std::vector<char> bad_var = valid;
  const double negative = -1.0;
  std::memcpy(bad_var.data() + 130 + 20 + 16 * 8 + 8, &negative,
              sizeof(negative));
  spit(dir / "plan_lut_negative_var.bin", bad_var);

  // The previous layout's magic ("RDP3") over a valid plan: refused as
  // "bad magic" before the fingerprint is read.
  std::vector<char> rdp3 = valid;
  const std::uint32_t rdp3_magic = 0x52445033;
  std::memcpy(rdp3.data(), &rdp3_magic, sizeof(rdp3_magic));
  spit(dir / "plan_rdp3_magic.bin", rdp3);

  // A plan that ran the optimizer pipeline (colored registers), its
  // corrupt variants, and pass-list rejection cases.
  rdo::core::DeployOptions oopt = opt;
  oopt.opt_passes = "color_offset_registers";
  const rdo::core::DeploymentPlan optimized =
      rdo::core::compile_plan(net, oopt, train);
  const std::uint64_t opt_fp = rdo::core::plan_fingerprint(net, oopt, train);
  optimized.save((dir / "valid_optimized.bin").string(), opt_fp);
  const std::vector<char> opt_bytes = slurp(dir / "valid_optimized.bin");
  corrupt_variants(dir, "optimized", opt_bytes);

  // Stale-fingerprint path over the optimized plan.
  std::vector<char> opt_stale = opt_bytes;
  const std::uint64_t opt_other = opt_fp ^ 0xDEADBEEFull;
  std::memcpy(opt_stale.data() + 4, &opt_other, sizeof(opt_other));
  spit(dir / "optimized_stale_fp.bin", opt_stale);

  // Unparseable optimizer pass list in the options block: the loader
  // must reject it before anything downstream consumes the options.
  rdo::core::DeploymentPlan bad_list = plan;
  bad_list.opt.opt_passes = "bogus_pass";
  bad_list.save((dir / "plan_bad_passlist.bin").string(), fp);
}

void make_json_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  spit(dir / "scalars.json", std::string("[0, -1, 2.5, 1e-3, true, false, "
                                         "null, \"s\"]"));
  spit(dir / "nested.json",
       std::string("{\"a\": {\"b\": [1, {\"c\": [[]]}]}, \"d\": {}}"));
  spit(dir / "escapes.json",
       std::string("[\"\\n\\t\\\"\\\\\\u0041\\u00e9\\u4e16\"]"));
  spit(dir / "bench_like.json",
       std::string("{\"schema_version\": 2, \"name\": \"x\", \"results\": "
                   "[{\"scheme\": \"vawo*+pwt\", \"accuracy\": 0.98}], "
                   "\"counters\": {\"device_pulses\": 123456}}"));
  spit(dir / "bad_trailing.json", std::string("{} x"));
  spit(dir / "bad_number.json", std::string("[1e+ , -]"));
  spit(dir / "bad_unterminated.json", std::string("[\"abc"));
  spit(dir / "deep_nesting.json",
       std::string(300, '[') + std::string(300, ']'));
}

void make_args_seeds(const fs::path& dir) {
  fs::create_directories(dir);
  spit(dir / "valid_full.txt",
       std::string("--model\nlenet\n--scheme\nvawo*+pwt\n--cell\nmlc2\n"
                   "--scope\nper-cell\n--sigma\n0.7\n--ddv\n0.25\n--m\n8\n"
                   "--bits\n4\n--repeats\n2\n--seed\n42\n--json\nout.json"));
  spit(dir / "help.txt", std::string("--help"));
  spit(dir / "bad_number.txt", std::string("--sigma\nnot-a-number"));
  spit(dir / "bad_scheme.txt", std::string("--scheme\nbogus"));
  spit(dir / "missing_value.txt", std::string("--seed"));
  spit(dir / "overflow.txt",
       std::string("--m\n99999999999999999999\n--seed\n-1"));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fuzz_seeds <corpus-root>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  try {
    make_serialize_seeds(root / "fuzz_serialize");
    make_rlut_seeds(root / "fuzz_rlut");
    make_plan_seeds(root / "fuzz_plan");
    make_json_seeds(root / "fuzz_json");
    make_args_seeds(root / "fuzz_args");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_fuzz_seeds: %s\n", e.what());
    return 1;
  }
  return 0;
}
