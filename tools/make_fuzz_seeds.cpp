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
  // after the options block (magic 4 + fingerprint 8 + 123 fixed-width
  // option bytes + the 8-byte length prefix of the empty optimizer pass
  // list — see plan_io.cpp write_options).
  std::vector<char> huge_lut = valid;
  const std::uint64_t huge = 1ull << 40;
  std::memcpy(huge_lut.data() + 143, &huge, sizeof(huge));
  spit(dir / "plan_huge_lut.bin", huge_lut);

  // RDP2 fixtures: a plan carrying the full optimizer pipeline (tuned
  // per-layer m, colored registers, provenance record), its corrupt
  // variants, and pass-list rejection cases.
  rdo::core::DeployOptions topt = opt;
  topt.opt_passes =
      "tune_group_size,color_offset_registers,eliminate_dead_tiles,"
      "canonicalize_complement";
  const rdo::core::DeploymentPlan tuned =
      rdo::core::compile_plan(net, topt, train);
  const std::uint64_t tuned_fp =
      rdo::core::plan_fingerprint(net, topt, train);
  tuned.save((dir / "valid_tuned.bin").string(), tuned_fp);
  const std::vector<char> tuned_bytes = slurp(dir / "valid_tuned.bin");
  corrupt_variants(dir, "tuned", tuned_bytes);

  // Stale-fingerprint path over the tuned format.
  std::vector<char> tuned_stale = tuned_bytes;
  const std::uint64_t tuned_other = tuned_fp ^ 0xDEADBEEFull;
  std::memcpy(tuned_stale.data() + 4, &tuned_other, sizeof(tuned_other));
  spit(dir / "tuned_stale_fp.bin", tuned_stale);

  // Unregistered name in the trailing pass-provenance record (the file
  // ends with the last pass name's bytes): must raise PlanError.
  std::vector<char> bad_prov = tuned_bytes;
  bad_prov.back() ^= 0x01;
  spit(dir / "tuned_bad_provenance.bin", bad_prov);

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
