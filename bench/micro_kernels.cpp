// Micro-benchmarks (google-benchmark) for the simulation kernels: device
// programming, the batched crossbar VMM, a device-level evaluate, LUT
// construction, the VAWO group solver, the GEMM kernels, and conv
// lowering (LeNet's im2col, and its convolutions in forward, training
// backward and PWT offset-gradient backward).
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/plan.h"
#include "core/vawo.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/im2col.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "quant/act_quant.h"
#include "rram/crossbar.h"
#include "rram/rlut.h"
#include "sim/device_backend.h"

using namespace rdo;
using rdo::nn::Rng;

namespace {

void BM_WeightProgram(benchmark::State& state) {
  const rram::CellModel cell{
      state.range(0) == 1 ? rram::CellKind::SLC : rram::CellKind::MLC2,
      200.0};
  rram::WeightProgrammer prog(cell, 8, {0.5, 0.0});
  Rng rng(1);
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prog.program(v, rng));
    v = (v + 37) & 255;
  }
}
BENCHMARK(BM_WeightProgram)->Arg(1)->Arg(2);

void BM_CrossbarProgram(benchmark::State& state) {
  rram::CrossbarConfig cfg;
  cfg.cell = {rram::CellKind::MLC2, 200.0};
  cfg.variation = {0.5, 0.0};
  rram::Crossbar xb(cfg);
  Rng rng(2);
  std::vector<int> states(128 * 128);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = static_cast<int>(i % 4);
  }
  for (auto _ : state) {
    xb.program(states, rng);
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128);
}
BENCHMARK(BM_CrossbarProgram);

// Args: {active wordlines, batch n}. One batched read of n inputs over
// every wordline of a 128x128 MLC2 array.
void BM_CrossbarVmm(benchmark::State& state) {
  rram::CrossbarConfig cfg;
  cfg.cell = {rram::CellKind::MLC2, 200.0};
  cfg.variation = {0.5, 0.0};
  cfg.active_wordlines = static_cast<int>(state.range(0));
  const std::int64_t n = state.range(1);
  rram::Crossbar xb(cfg);
  Rng rng(3);
  std::vector<int> states(128 * 128);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = static_cast<int>((i * 7) % 4);
  }
  xb.program(states, rng);
  std::vector<double> x(static_cast<std::size_t>(n * 128));
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  std::vector<double> y(static_cast<std::size_t>(n * 128));
  for (auto _ : state) {
    xb.vmm_rows(x, n, 0, 128, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 128);
}
BENCHMARK(BM_CrossbarVmm)
    ->Args({16, 1})
    ->Args({128, 1})
    ->Args({16, 64})
    ->Unit(benchmark::kMicrosecond);

// Arg: cell (1 = SLC, 2 = MLC2). Device-level evaluate of the 784-64-10
// MLP with 8-bit activation quantizers (the compile_mlp_sim network,
// untrained) over 64 samples: VAWO*, m = 16, sigma 0.5, one thread.
void BM_DeviceSimEvaluate(benchmark::State& state) {
  nn::set_thread_count(1);
  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = 10;
  spec.test_per_class = 7;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  Rng rng(6);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<quant::ActQuant>(8);
  net.emplace<nn::Dense>(28 * 28, 64, rng);
  net.emplace<nn::ReLU>();
  net.emplace<quant::ActQuant>(8);
  net.emplace<nn::Dense>(64, 10, rng);
  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStar;
  o.offsets.m = 16;
  o.cell = {state.range(0) == 1 ? rram::CellKind::SLC : rram::CellKind::MLC2,
            200.0};
  o.variation.sigma = 0.5;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 4;
  o.grad_samples = 64;
  const core::DeploymentPlan plan = core::compile_plan(net, o, ds.train());
  sim::DeviceSimBackend dev(plan, net);
  dev.program_cycle(0);
  std::vector<std::int64_t> idx(64);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::int64_t>(i);
  }
  const nn::Tensor images = nn::gather_batch(ds.test_images, idx);
  const std::vector<int> labels(ds.test_labels.begin(),
                                ds.test_labels.begin() + 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.evaluate({&images, &labels}));
    dev.clear_eval_records();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  nn::set_thread_count(0);
}
BENCHMARK(BM_DeviceSimEvaluate)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_LutBuild(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rram::RLut::build(prog, k, 8, Rng(4)));
  }
}
BENCHMARK(BM_LutBuild)->Arg(4)->Arg(16);

// Arg: group size m. The weight range is derived from the LUT
// bit-width, not hardcoded, so changing the programmer's bits keeps the
// bench honest.
void BM_VawoSolveGroup(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const rram::RLut lut = rram::RLut::build_analytic(prog);
  const int levels = lut.max_weight();
  const int m = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<int> ntw;
  std::vector<double> g2;
  for (int i = 0; i < m; ++i) {
    ntw.push_back(static_cast<int>(rng.uniform_int(0, levels)));
    const double g = rng.uniform(0.01, 1.0);
    g2.push_back(g * g);
  }
  core::VawoOptions opt;
  opt.use_complement = true;
  const core::VawoTable table =
      core::VawoTable::build(lut, levels, opt.offsets, opt.penalize_bias);
  for (auto _ : state) {
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    benchmark::DoNotOptimize(core::vawo_solve_group(
        ntw, g2, table, opt.use_complement, b, comp, ctw));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_VawoSolveGroup)->Arg(16)->Arg(64)->Arg(128);

// Full-layer solve over a prebuilt table, as compile_plan runs it. Arg:
// group size m.
void BM_VawoLayer(benchmark::State& state) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const rram::RLut lut = rram::RLut::build_analytic(prog);
  const std::int64_t rows = 256, cols = 64;
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  lq.q.resize(static_cast<std::size_t>(rows * cols));
  std::vector<double> grads(lq.q.size());
  Rng rng(9);
  for (std::size_t i = 0; i < lq.q.size(); ++i) {
    lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
    grads[i] = rng.uniform(0.0, 1.0);
  }
  core::VawoOptions opt;
  opt.use_complement = true;
  opt.offsets.m = static_cast<int>(state.range(0));
  const core::VawoTable table = core::VawoTable::build(
      lut, lq.levels(), opt.offsets, opt.penalize_bias);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::vawo_layer(lq, grads, table, opt));
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_VawoLayer)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

// Args: {matrix size, pool threads}. The thread sweep is the speedup
// table recorded in EXPERIMENTS.md; results are bit-identical across the
// sweep (asserted in tests/test_parallel.cpp).
void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  nn::set_thread_count(static_cast<int>(state.range(1)));
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)), c(static_cast<std::size_t>(n * n));
  Rng rng(6);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
  nn::set_thread_count(0);
}
BENCHMARK(BM_Gemm)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4});

void BM_GemmAtB(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  nn::set_thread_count(static_cast<int>(state.range(1)));
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)),
      c(static_cast<std::size_t>(n * n), 0.0f);
  Rng rng(8);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm_at_b_accumulate(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n * 2);
  nn::set_thread_count(0);
}
BENCHMARK(BM_GemmAtB)->Args({256, 1})->Args({256, 4});

// Args: {m, k, n} of C[m, n] += A[m, k] * B^T with B stored [n, k], on
// one thread. The shapes are PWT's per-sample offset-gradient reductions
// for LeNet at m = 16: conv1 (2 groups, 784 positions, 6 channels) and
// conv2 (10 groups, 100 positions, 16 channels).
void BM_GemmABt(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  nn::set_thread_count(1);
  Rng rng(12);
  std::vector<float> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(n * k)),
      c(static_cast<std::size_t>(m * n), 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.uniform(0, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm_a_bt_accumulate(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n * 2);
  nn::set_thread_count(0);
}
BENCHMARK(BM_GemmABt)->Args({2, 784, 6})->Args({10, 100, 16});

// Dispatch overhead of one parallel_for over a trivial body: the floor
// under which kernels should not bother going parallel.
void BM_ParallelForDispatch(benchmark::State& state) {
  nn::set_thread_count(static_cast<int>(state.range(0)));
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    nn::parallel_for(1024, [&](std::int64_t b, std::int64_t e) {
      sink.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
  nn::set_thread_count(0);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(4);

void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(7);
  nn::Conv2D conv(8, 16, 3, 1, 1, rng);
  nn::Tensor x({4, 8, 16, 16});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0, 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForward);

// LeNet's two convolutions at PWT batch 32 (arg 0: 1 = conv1 1->6 on
// 28x28 pad 2, 2 = conv2 6->16 on 14x14).
nn::Conv2D lenet_conv(std::int64_t which, Rng& rng, nn::Tensor& x) {
  const bool first = which == 1;
  nn::Conv2D conv(first ? 1 : 6, first ? 6 : 16, 5, 1, first ? 2 : 0, rng);
  x = nn::Tensor({32, first ? 1 : 6, first ? 28 : 14, first ? 28 : 14});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0, 1));
  }
  return conv;
}

// The lowering alone: one im2col per image of a LeNet batch of 32.
void BM_Im2col(benchmark::State& state) {
  Rng rng(13);
  nn::Tensor x;
  const nn::Conv2D conv = lenet_conv(state.range(0), rng, x);
  const std::int64_t c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t k = conv.kernel(), pad = conv.pad();
  const std::int64_t positions = nn::conv_out_dim(h, k, 1, pad) *
                                 nn::conv_out_dim(w, k, 1, pad);
  std::vector<float> cols(static_cast<std::size_t>(conv.fan_in() * positions));
  for (auto _ : state) {
    for (std::int64_t s = 0; s < x.dim(0); ++s) {
      nn::im2col(x.data() + s * c * h * w, c, h, w, k, k, 1, pad,
                 cols.data());
      benchmark::DoNotOptimize(cols.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * x.dim(0) *
                          static_cast<std::int64_t>(cols.size()));
}
BENCHMARK(BM_Im2col)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_LeNetConvForward(benchmark::State& state) {
  Rng rng(10);
  nn::Tensor x;
  nn::Conv2D conv = lenet_conv(state.range(0), rng, x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_LeNetConvForward)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Arg 1 is the backward flavour: 0 = training backward (dW, bias grad and
// input grad), 1 = offset-gradient mode at m = 16 with the input grad (PWT
// on an inner layer), 2 = offset-gradient mode without it (PWT on the
// first layer, backward_params).
void BM_LeNetConvBackward(benchmark::State& state) {
  Rng rng(11);
  nn::Tensor x;
  nn::Conv2D conv = lenet_conv(state.range(0), rng, x);
  const std::int64_t mode = state.range(1);
  if (mode > 0) conv.set_offset_group_size(16);
  const nn::Tensor y = conv.forward(x, false);
  nn::Tensor g(y.shape());
  for (std::int64_t i = 0; i < g.size(); ++i) {
    g[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  for (auto _ : state) {
    if (mode == 2) {
      conv.backward_params(g);
      benchmark::DoNotOptimize(conv.offset_grad().data());
    } else {
      benchmark::DoNotOptimize(conv.backward(g));
    }
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LeNetConvBackward)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({2, 2})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
