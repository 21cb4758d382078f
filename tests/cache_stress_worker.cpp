// Worker process for the multi-process cache integration test
// (tests/test_plan_io.cpp, CacheMultiProcess suite). Compiles one fixed
// deterministic deployment under whatever RDO_LUT_CACHE_DIR /
// RDO_PLAN_CACHE_DIR the parent exported, then prints:
//
//   digest <16-hex FNV-1a of the serialized plan bytes>
//   deploy_plan_cache_hits <n>
//   deploy_plan_cache_misses <n>
//
// (the process-wide plan-cache counters of obs::global_metrics()).
//
// Several concurrent workers sharing one cache directory must all print
// the same digest (atomic temp+rename writes, no torn reads), and a
// warm rerun must report a plan cache hit.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.h"
#include "obs/metrics.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "nn/tensor.h"
#include "nn/trainer.h"

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main() {
  rdo::nn::Rng rng(11);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Dense>(6, 4, rng);

  rdo::nn::Tensor images({12, 6});
  for (std::int64_t i = 0; i < images.size(); ++i) {
    images[i] = 0.2f * static_cast<float>(i % 7) - 0.6f;
  }
  std::vector<int> labels;
  for (int i = 0; i < 12; ++i) labels.push_back(i % 4);
  const rdo::nn::DataView train{&images, &labels};

  rdo::core::DeployOptions opt;
  opt.scheme = rdo::core::Scheme::VAWOStar;
  opt.weight_bits = 4;
  opt.offsets.m = 2;
  opt.offsets.offset_bits = 4;
  opt.variation.sigma = 0.5;
  opt.lut_k_sets = 2;
  opt.lut_j_cycles = 2;
  opt.grad_samples = 12;
  opt.seed = 11;

  try {
    const rdo::core::DeploymentPlan plan =
        rdo::core::compile_plan(net, opt, train);
    const std::uint64_t fp = rdo::core::plan_fingerprint(net, opt, train);
    std::ostringstream bytes(std::ios::binary);
    plan.save(bytes, fp);
    std::printf("digest %016llx\n",
                static_cast<unsigned long long>(fnv1a(bytes.str())));
    for (const char* name :
         {"deploy_plan_cache_hits", "deploy_plan_cache_misses"}) {
      std::printf("%s %lld\n", name,
                  static_cast<long long>(
                      rdo::obs::global_metrics().counter(name).value()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cache_stress_worker: %s\n", e.what());
    return 1;
  }
  return 0;
}
