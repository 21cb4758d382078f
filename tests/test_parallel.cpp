// Deterministic thread-pool execution layer (nn/parallel.h): coverage,
// nesting and exception semantics of parallel_for, bitwise determinism
// of the parallel GEMM kernels, and the headline guarantee — parallel
// Monte-Carlo deployment trials and batched device-level inference are
// bit-identical to the serial path for any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "sim/device_backend.h"

using namespace rdo;

namespace {

/// RAII thread-count override so a failing assertion cannot leak a
/// forced pool size into other tests.
struct ThreadGuard {
  explicit ThreadGuard(int n) { nn::set_thread_count(n); }
  ~ThreadGuard() { nn::set_thread_count(0); }
};

}  // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard(4);
  const std::int64_t n = 1237;  // prime: uneven chunking
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  nn::parallel_for(n, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RespectsGrainAndEmptyRange) {
  ThreadGuard guard(4);
  int calls = 0;
  nn::parallel_for(
      10, [&](std::int64_t b, std::int64_t e) {
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 10);
        ++calls;
      },
      /*grain=*/10);  // n <= grain: must run inline as one chunk
  EXPECT_EQ(calls, 1);
  nn::parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);  // empty range: body never invoked
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard(4);
  std::atomic<int> inner_total{0};
  EXPECT_FALSE(nn::in_parallel_region());
  nn::parallel_for(8, [&](std::int64_t b, std::int64_t e) {
    EXPECT_TRUE(nn::in_parallel_region());
    for (std::int64_t i = b; i < e; ++i) {
      nn::parallel_for(4, [&](std::int64_t ib, std::int64_t ie) {
        inner_total.fetch_add(static_cast<int>(ie - ib));
      });
    }
  });
  EXPECT_FALSE(nn::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      nn::parallel_for(64,
                       [&](std::int64_t b, std::int64_t) {
                         if (b >= 16) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> total{0};
  nn::parallel_for(16, [&](std::int64_t b, std::int64_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelGemm, BitIdenticalAcrossThreadCounts) {
  // Odd sizes so chunk boundaries fall mid-structure; zeros exercise the
  // sparsity skip.
  const std::int64_t m = 97, k = 63, n = 41;
  nn::Rng rng(123);
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      at(static_cast<std::size_t>(k * m)), b(static_cast<std::size_t>(k * n)),
      bt(static_cast<std::size_t>(n * k));
  for (auto& v : a) {
    v = rng.uniform(0.0, 1.0) < 0.3
            ? 0.0f
            : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& v : at) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : bt) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto run_all = [&](std::vector<float>& c1, std::vector<float>& c2,
                           std::vector<float>& c3) {
    c1.assign(static_cast<std::size_t>(m * n), 0.5f);
    c2.assign(static_cast<std::size_t>(m * n), 0.5f);
    c3.assign(static_cast<std::size_t>(m * n), 0.5f);
    nn::gemm_accumulate(a.data(), b.data(), c1.data(), m, k, n);
    nn::gemm_at_b_accumulate(at.data(), b.data(), c2.data(), m, k, n);
    nn::gemm_a_bt_accumulate(a.data(), bt.data(), c3.data(), m, k, n);
  };

  std::vector<float> s1, s2, s3;
  {
    ThreadGuard guard(1);
    run_all(s1, s2, s3);
  }
  for (int threads : {2, 4, 7}) {
    ThreadGuard guard(threads);
    std::vector<float> p1, p2, p3;
    run_all(p1, p2, p3);
    EXPECT_EQ(0, std::memcmp(s1.data(), p1.data(), s1.size() * sizeof(float)))
        << "gemm_accumulate differs at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(s2.data(), p2.data(), s2.size() * sizeof(float)))
        << "gemm_at_b_accumulate differs at " << threads << " threads";
    EXPECT_EQ(0, std::memcmp(s3.data(), p3.data(), s3.size() * sizeof(float)))
        << "gemm_a_bt_accumulate differs at " << threads << " threads";
  }
}

namespace {

/// Small trained MLP + dataset for the deployment determinism tests.
struct DeployFixture {
  data::SyntheticDataset ds;
  nn::Sequential net;

  DeployFixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 8;
    spec.classes = 4;
    spec.train_per_class = 20;
    spec.test_per_class = 8;
    spec.seed = 51;
    ds = data::make_synthetic(spec);
    nn::Rng rng(14);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(64, 16, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(16, 4, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 5; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }
};

DeployFixture& deploy_fixture() {
  static DeployFixture f;
  return f;
}

core::DeployOptions deploy_opts(rram::CellKind cell) {
  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStarPWT;  // exercises VAWO*, PWT, evaluate
  o.offsets.m = 8;
  o.cell = {cell, 200.0};
  o.variation.sigma = 0.4;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 4;
  o.grad_samples = 64;
  o.pwt.epochs = 1;
  o.pwt.max_samples = 48;
  o.seed = 77;
  return o;
}

/// Serial oracle for run_scheme: one backend, the cycles run in order on
/// the calling thread — the program/tune/evaluate loop the parallel
/// trials must reproduce exactly.
core::SchemeResult serial_run(const DeployFixture& f,
                              const core::DeployOptions& o, int repeats) {
  const core::DeploymentPlan plan =
      core::compile_plan(f.net, o, f.ds.train());
  core::EffectiveWeightBackend backend(plan, f.net);
  core::SchemeResult res;
  double total = 0.0;
  for (int cycle = 0; cycle < repeats; ++cycle) {
    backend.program_cycle(static_cast<std::uint64_t>(cycle));
    backend.tune(f.ds.train());
    res.per_cycle.push_back(backend.evaluate(f.ds.test(), 64));
    total += res.per_cycle.back();
  }
  res.mean_accuracy = static_cast<float>(total / repeats);
  return res;
}

/// Identity layer whose clone() throws once a shared budget of clones is
/// spent: every clone of a network holding it (compile_plan's work copy,
/// each trial backend's private twin) draws one from the budget.
class CloneTrap : public nn::Layer {
 public:
  explicit CloneTrap(std::shared_ptr<std::atomic<int>> budget)
      : budget_(std::move(budget)) {}
  nn::Tensor forward(const nn::Tensor& x, bool) override { return x; }
  nn::Tensor backward(const nn::Tensor& g) override { return g; }
  [[nodiscard]] std::unique_ptr<nn::Layer> clone() const override {
    if (budget_->fetch_sub(1) == 0) {
      throw std::runtime_error("injected clone failure");
    }
    return std::make_unique<CloneTrap>(budget_);
  }
  [[nodiscard]] std::string name() const override { return "CloneTrap"; }

 private:
  std::shared_ptr<std::atomic<int>> budget_;
};

/// One grid point's result equals another's in every deterministic
/// field (the errors, the per-cycle accuracies, the mean and the merged
/// stats).
void expect_same_result(const core::SchemeResult& a,
                        const core::SchemeResult& b) {
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.per_cycle, b.per_cycle);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(core::deploy_stats_json(a.stats).dump(),
            core::deploy_stats_json(b.stats).dump());
}

}  // namespace

TEST(Determinism, ParallelTrialsMatchSerialRunSchemeSlcAndMlc) {
  // The headline guarantee: same seed, 1 vs N threads, identical
  // per-trial deployment accuracies (exact float equality) — for SLC and
  // MLC2 cells. Each trial's devices are drawn from
  // Rng(seed).split(trial)-derived streams, never from shared state, so
  // run_scheme's fresh backend per trial matches one backend running the
  // cycles in order.
  auto& f = deploy_fixture();
  const int repeats = 2;
  for (rram::CellKind cell : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    const core::DeployOptions o = deploy_opts(cell);
    core::SchemeResult serial, par1, par4;
    {
      ThreadGuard guard(1);
      serial = serial_run(f, o, repeats);
      par1 = core::run_scheme(f.net, o, f.ds.train(), f.ds.test(), repeats);
    }
    {
      ThreadGuard guard(4);
      par4 = core::run_scheme(f.net, o, f.ds.train(), f.ds.test(), repeats);
    }
    ASSERT_EQ(serial.per_cycle.size(), static_cast<std::size_t>(repeats));
    ASSERT_EQ(par1.per_cycle.size(), static_cast<std::size_t>(repeats));
    ASSERT_EQ(par4.per_cycle.size(), static_cast<std::size_t>(repeats));
    for (int t = 0; t < repeats; ++t) {
      const auto i = static_cast<std::size_t>(t);
      EXPECT_EQ(serial.per_cycle[i], par1.per_cycle[i])
          << "trial " << t << " (1 thread) diverged from serial";
      EXPECT_EQ(serial.per_cycle[i], par4.per_cycle[i])
          << "trial " << t << " (4 threads) diverged from serial";
    }
    EXPECT_EQ(serial.mean_accuracy, par4.mean_accuracy);
  }
}

TEST(Determinism, RunGridRecordsACompileErrorAndKeepsTheOtherPoints) {
  // The middle point cannot compile (m = 0). Its error lands in each of
  // its trial slots; the outer points come out exactly as their own
  // one-point run_scheme calls, at 1 and 4 threads.
  auto& f = deploy_fixture();
  const int repeats = 2;
  core::DeployOptions bad = deploy_opts(rram::CellKind::SLC);
  bad.offsets.m = 0;
  const std::vector<core::DeployOptions> points = {
      deploy_opts(rram::CellKind::SLC), bad,
      deploy_opts(rram::CellKind::MLC2)};
  for (int threads : {1, 4}) {
    ThreadGuard guard(threads);
    const std::vector<core::SchemeResult> grid =
        core::run_grid(f.net, points, f.ds.train(), f.ds.test(), repeats);
    ASSERT_EQ(grid.size(), 3u);
    for (std::size_t p : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE("point " + std::to_string(p) + ", " +
                   std::to_string(threads) + " threads");
      const core::SchemeResult single = core::run_scheme(
          f.net, points[p], f.ds.train(), f.ds.test(), repeats);
      EXPECT_FALSE(grid[p].failed());
      expect_same_result(grid[p], single);
    }
    const core::SchemeResult& mid = grid[1];
    ASSERT_EQ(mid.errors.size(), static_cast<std::size_t>(repeats));
    for (const std::string& e : mid.errors) {
      EXPECT_NE(e.find("m = 0"), std::string::npos) << e;
    }
    EXPECT_EQ(mid.per_cycle, std::vector<float>(repeats, 0.0f));
    EXPECT_EQ(mid.mean_accuracy, 0.0f);
  }
}

TEST(Determinism, RunGridRecordsAThrowingTrialInItsOwnSlot) {
  // One trial's backend cannot clone the network. That trial alone reads
  // 0 with the message in its slot (and counts as 0 in the mean); every
  // other slot of the grid matches an undisturbed run.
  auto& f = deploy_fixture();
  const int repeats = 2;
  const auto budget = std::make_shared<std::atomic<int>>(1 << 30);
  nn::Sequential net;
  net.push(f.net.clone());
  net.emplace<CloneTrap>(budget);
  const std::vector<core::DeployOptions> points = {
      deploy_opts(rram::CellKind::SLC), deploy_opts(rram::CellKind::MLC2)};
  const std::vector<core::SchemeResult> clean =
      core::run_grid(net, points, f.ds.train(), f.ds.test(), repeats);
  // Clones one compile takes; the compiles run before any trial, so a
  // budget of exactly the compiles' clones fails the first trial to start.
  const int before = budget->load();
  (void)core::compile_plan(net, points[0], f.ds.train());
  const int compile_clones = before - budget->load();
  ASSERT_GT(compile_clones, 0);
  for (int threads : {1, 4}) {
    ThreadGuard guard(threads);
    budget->store(compile_clones * static_cast<int>(points.size()));
    const std::vector<core::SchemeResult> grid =
        core::run_grid(net, points, f.ds.train(), f.ds.test(), repeats);
    int failed = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      double total = 0.0;
      for (std::size_t t = 0; t < grid[p].errors.size(); ++t) {
        if (grid[p].errors[t].empty()) {
          EXPECT_EQ(grid[p].per_cycle[t], clean[p].per_cycle[t]);
        } else {
          ++failed;
          EXPECT_EQ(grid[p].errors[t], "injected clone failure");
          EXPECT_EQ(grid[p].per_cycle[t], 0.0f);
        }
        total += grid[p].per_cycle[t];
      }
      EXPECT_EQ(grid[p].mean_accuracy,
                static_cast<float>(total / repeats));
    }
    EXPECT_EQ(failed, 1) << threads << " threads";
  }
}

TEST(Determinism, DeviceLevelEvaluateMatchesAcrossThreadCounts) {
  // Batched device-level inference: a small CNN exercises the parallel
  // im2col-row dispatch, the shared max-pool kernel and per-image
  // evaluate parallelism. Same executor, 1 vs 4 threads, identical
  // logits and accuracy.
  data::SyntheticSpec spec = data::mnist_like();
  spec.height = spec.width = 8;
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 8;
  spec.seed = 61;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  nn::Rng rng(21);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(1, 4, 3, 1, 1, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::MaxPool2D>(2);
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(64, 4, rng);
  nn::SGD opt(net.params(), 0.05f);
  for (int e = 0; e < 3; ++e) {
    nn::train_epoch(net, opt, ds.train(), 16, rng);
  }

  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStar;
  o.offsets.m = 8;
  o.cell = {rram::CellKind::MLC2, 200.0};
  o.variation.sigma = 0.3;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 4;
  o.grad_samples = 32;
  o.seed = 19;
  sim::DeviceSimOptions geom;
  geom.xbar_rows = 16;
  geom.xbar_cols = 32;
  geom.active_wordlines = 4;
  const core::DeploymentPlan plan = core::compile_plan(net, o, ds.train());
  sim::DeviceSimBackend exec(plan, net, geom);
  exec.program_cycle(0);

  std::vector<double> x(64);
  const float* img = ds.test().images->data();
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = img[i];

  float acc1 = 0.0f, acc4 = 0.0f;
  std::vector<double> logits1, logits4;
  {
    ThreadGuard guard(1);
    logits1 = exec.forward_image(x, 1, 8, 8);
    acc1 = exec.evaluate(ds.test());
  }
  {
    ThreadGuard guard(4);
    logits4 = exec.forward_image(x, 1, 8, 8);
    acc4 = exec.evaluate(ds.test());
  }
  ASSERT_EQ(logits1.size(), logits4.size());
  for (std::size_t i = 0; i < logits1.size(); ++i) {
    EXPECT_EQ(logits1[i], logits4[i]) << "logit " << i;
  }
  EXPECT_EQ(acc1, acc4);
}

TEST(PoolStats, ClassifiesInlineAndDispatchedLoops) {
  nn::reset_pool_stats();
  const nn::PoolStats zero = nn::pool_stats();
  EXPECT_EQ(zero.parallel_loops, 0);
  EXPECT_EQ(zero.inline_loops, 0);
  EXPECT_EQ(zero.chunks_executed, 0);
  EXPECT_EQ(zero.chunks_stolen, 0);

  {
    ThreadGuard guard(4);
    nn::parallel_for(256, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  }
  nn::PoolStats s = nn::pool_stats();
  EXPECT_EQ(s.parallel_loops, 1);
  EXPECT_EQ(s.inline_loops, 0);
  // chunk = max(1, ceil(256 / (4 threads * 4))) = 16 -> 16 chunks.
  EXPECT_EQ(s.chunks_executed, 16);
  EXPECT_LE(s.chunks_stolen, s.chunks_executed);

  {
    ThreadGuard guard(4);
    // n <= grain runs inline and retires no chunks.
    nn::parallel_for(4, [](std::int64_t, std::int64_t) {}, /*grain=*/10);
  }
  {
    ThreadGuard guard(1);
    // A serial pool runs inline too.
    nn::parallel_for(256, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  }
  s = nn::pool_stats();
  EXPECT_EQ(s.parallel_loops, 1);
  EXPECT_EQ(s.inline_loops, 2);
  EXPECT_EQ(s.chunks_executed, 16);

  nn::reset_pool_stats();
  const nn::PoolStats cleared = nn::pool_stats();
  EXPECT_EQ(cleared.parallel_loops, 0);
  EXPECT_EQ(cleared.inline_loops, 0);
  EXPECT_EQ(cleared.chunks_executed, 0);
  EXPECT_EQ(cleared.chunks_stolen, 0);
}

TEST(PoolStats, CountersStayConsistentUnderConcurrentLoops) {
  ThreadGuard guard(4);
  nn::reset_pool_stats();
  // Four user threads each dispatch four loops concurrently; the pool is
  // shared, so this exercises the relaxed counters under contention.
  constexpr int kUserThreads = 4;
  constexpr int kLoopsPerThread = 4;
  constexpr std::int64_t kN = 256;  // -> 16 chunks per loop at 4 threads
  std::atomic<std::int64_t> touched{0};
  std::vector<std::thread> users;
  users.reserve(kUserThreads);
  for (int t = 0; t < kUserThreads; ++t) {
    users.emplace_back([&touched] {
      for (int k = 0; k < kLoopsPerThread; ++k) {
        nn::parallel_for(
            kN,
            [&touched](std::int64_t begin, std::int64_t end) {
              touched.fetch_add(end - begin, std::memory_order_relaxed);
            },
            /*grain=*/1);
      }
    });
  }
  for (std::thread& u : users) u.join();

  EXPECT_EQ(touched.load(), kUserThreads * kLoopsPerThread * kN);
  const nn::PoolStats s = nn::pool_stats();
  EXPECT_EQ(s.parallel_loops + s.inline_loops,
            kUserThreads * kLoopsPerThread);
  // Every dispatched loop retires exactly ceil(n / chunk) chunks; chunks
  // never disappear or double-count even with stealing.
  EXPECT_EQ(s.chunks_executed, s.parallel_loops * 16);
  EXPECT_GE(s.chunks_stolen, 0);
  EXPECT_LE(s.chunks_stolen, s.chunks_executed);
  nn::reset_pool_stats();
}
