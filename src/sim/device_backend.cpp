#include "sim/device_backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/check.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_planes.h"
#include "nn/dense.h"
#include "nn/parallel.h"
#include "nn/pooling.h"
#include "obs/trace.h"
#include "quant/act_quant.h"

namespace rdo::sim {

using rdo::nn::Conv2D;
using rdo::nn::Dense;

DeviceSimBackend::DeviceSimBackend(const rdo::core::DeploymentPlan& plan,
                                   const rdo::nn::Layer& src,
                                   DeviceSimOptions dopt)
    : EffectiveWeightBackend(plan, src, /*keep_cell_values=*/true) {
  // Device substrate: geometry from dopt, cell model and offset
  // configuration from the shared plan.
  ExecutorConfig cfg;
  cfg.xbar.rows = dopt.xbar_rows;
  cfg.xbar.cols = dopt.xbar_cols;
  cfg.xbar.cell = plan.opt.cell;
  cfg.xbar.active_wordlines = dopt.active_wordlines;
  cfg.offsets = plan.opt.offsets;

  // Walk the base's twin (same topology as `src`, already moved to the
  // plan's quantized + calibrated operating point) in definition order
  // and validate the topology. The base already matched the twin's
  // crossbar layers one-to-one with plan.layers.
  rdo::nn::Layer* root = &network();
  std::vector<rdo::nn::Layer*> all;
  collect_layers(root, all);
  std::size_t mi = 0;
  for (rdo::nn::Layer* l : all) {
    if (l == root) continue;
    Stage stage;
    if (l->name() == "ReLU") {
      stage.kind = Stage::Kind::ReLU;
      stages_.push_back(std::move(stage));
      continue;
    }
    if (l->name() == "Flatten") {
      continue;  // shape bookkeeping only
    }
    if (auto* aq = dynamic_cast<rdo::quant::ActQuant*>(l)) {
      stage.kind = Stage::Kind::ActQuant;
      stage.aq = aq;
      stages_.push_back(std::move(stage));
      continue;
    }
    if (auto* pool = dynamic_cast<rdo::nn::MaxPool2D*>(l)) {
      stage.kind = Stage::Kind::MaxPool;
      stage.pool_window = static_cast<int>(pool->window());
      stages_.push_back(std::move(stage));
      continue;
    }
    auto* op = dynamic_cast<rdo::nn::MatrixOp*>(l);
    if (op == nullptr) {
      throw std::invalid_argument(
          "DeviceSimBackend: unsupported layer at device level: " +
          l->name());
    }
    rdo::nn::Param* bias_param = nullptr;
    if (auto* conv = dynamic_cast<Conv2D*>(l)) {
      stage.kind = Stage::Kind::Conv;
      stage.kernel = static_cast<int>(conv->kernel());
      stage.stride = static_cast<int>(conv->stride());
      stage.pad = static_cast<int>(conv->pad());
      bias_param = &conv->bias_param();
    } else if (auto* dense = dynamic_cast<Dense*>(l)) {
      stage.kind = Stage::Kind::Crossbar;
      bias_param = &dense->bias_param();
    } else {
      throw std::invalid_argument(
          "DeviceSimBackend: unsupported layer at device level: " +
          l->name());
    }
    stage.plan_index = mi;
    const rdo::core::PlanLayer& pl = plan.layers[mi];
    ++mi;
    stage.exec = std::make_unique<CrossbarLayerExecutor>(pl.lq, pl.assign,
                                                         cfg);
    stage.bias.assign(static_cast<std::size_t>(pl.lq.cols), 0.0f);
    if (bias_param != nullptr && bias_param->value.size() == pl.lq.cols) {
      for (std::int64_t c = 0; c < pl.lq.cols; ++c) {
        stage.bias[static_cast<std::size_t>(c)] = bias_param->value[c];
      }
    }
    stages_.push_back(std::move(stage));
  }
}

std::vector<double> DeviceSimBackend::forward(const std::vector<double>& x,
                                              int channels, int height,
                                              int width) const {
  return forward_batch(x, 1, channels, height, width);
}

std::vector<double> DeviceSimBackend::forward_batch(std::vector<double> h,
                                                    std::int64_t n,
                                                    int channels, int height,
                                                    int width) const {
  const auto at = [](std::int64_t i) { return static_cast<std::size_t>(i); };
  int c = channels, hh = height, ww = width;
  for (const Stage& s : stages_) {
    switch (s.kind) {
      case Stage::Kind::ReLU:
        for (auto& v : h) v = std::max(0.0, v);
        break;
      case Stage::Kind::ActQuant: {
        // Digital activation quantization in front of the DACs; same
        // float grid as the twin's ActQuant layer so the paths agree.
        if (s.aq != nullptr && s.aq->enabled()) {
          for (auto& v : h) {
            v = static_cast<double>(s.aq->quantize(static_cast<float>(v)));
          }
        }
        break;
      }
      case Stage::Kind::MaxPool: {
        RDO_CHECK(c > 0, "DeviceSimBackend: pooling needs an image");
        const int oh = hh / s.pool_window, ow = ww / s.pool_window;
        const std::int64_t in = std::int64_t{c} * hh * ww;
        const std::int64_t out = std::int64_t{c} * oh * ow;
        std::vector<double> y(at(n * out));
        // Same kernel as the float nn::MaxPool2D layer, so the device
        // and float paths cannot drift (asserted in test_equivalence).
        for (std::int64_t i = 0; i < n; ++i) {
          rdo::nn::maxpool2d_image(h.data() + i * in, c, hh, ww,
                                   s.pool_window, y.data() + i * out);
        }
        h = std::move(y);
        hh = oh;
        ww = ow;
        break;
      }
      case Stage::Kind::Conv: {
        RDO_CHECK(c > 0, "DeviceSimBackend: conv needs an image");
        const rdo::core::PlanLayer& pl = plan().layers[s.plan_index];
        const LayerState& state = layers()[s.plan_index];
        rdo::obs::TraceSpan stage_span("sim:conv_stage", "sim");
        stage_span.arg("kernel", s.kernel);
        stage_span.arg("out_channels", pl.lq.cols);
        stage_span.arg("n", n);
        const rdo::nn::ConvPlanes g(c, hh, ww, s.kernel, s.stride, s.pad);
        const std::int64_t positions = g.oh * g.ow;
        const std::int64_t in = std::int64_t{c} * hh * ww;
        const std::int64_t fin = pl.lq.rows;
        const std::int64_t oc = pl.lq.cols;
        RDO_CHECK(g.c * g.k * g.k == fin,
                  "DeviceSimBackend: a " + std::to_string(c) +
                      "-channel image for a conv layer of fan-in " +
                      std::to_string(fin));
        std::vector<float> img(at(in));
        std::vector<float> planes(at(g.size()));
        std::vector<double> x(at(positions * fin));
        std::vector<double> out(at(positions * oc));
        std::vector<double> y(at(n * oc * positions));
        for (std::int64_t i = 0; i < n; ++i) {
          const double* src = h.data() + i * in;
          std::copy(src, src + in, img.begin());
          g.lower(img.data(), planes.data());
          // Tap j = (ch, ky, kx) drives wordline j: its run holds the
          // tap's input at every output position, which becomes column j
          // of one input row per position, and all of the image's
          // positions go through the crossbars as one batch.
          for (std::int64_t j = 0; j < fin; ++j) {
            const float* run = planes.data() +
                               g.tap_offset(j / (g.k * g.k), j / g.k % g.k,
                                            j % g.k);
            for (std::int64_t oy = 0; oy < g.oh; ++oy) {
              for (std::int64_t ox = 0; ox < g.ow; ++ox) {
                x[at((oy * g.ow + ox) * fin + j)] = run[oy * g.wq + ox];
              }
            }
          }
          s.exec->forward(state.cells, state.offsets, x, positions, out);
          double* yi = y.data() + i * oc * positions;
          for (std::int64_t p = 0; p < positions; ++p) {
            for (std::int64_t k = 0; k < oc; ++k) {
              yi[k * positions + p] = out[at(p * oc + k)] + s.bias[at(k)];
            }
          }
        }
        h = std::move(y);
        c = static_cast<int>(oc);
        hh = static_cast<int>(g.oh);
        ww = static_cast<int>(g.ow);
        break;
      }
      case Stage::Kind::Crossbar: {
        const rdo::core::PlanLayer& pl = plan().layers[s.plan_index];
        const LayerState& state = layers()[s.plan_index];
        rdo::obs::TraceSpan stage_span("sim:crossbar_stage", "sim");
        stage_span.arg("rows", pl.lq.rows);
        stage_span.arg("cols", pl.lq.cols);
        stage_span.arg("n", n);
        const std::int64_t oc = pl.lq.cols;
        std::vector<double> y(at(n * oc));
        s.exec->forward(state.cells, state.offsets, h, n, y);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t k = 0; k < oc; ++k) {
            y[at(i * oc + k)] += s.bias[at(k)];
          }
        }
        h = std::move(y);
        c = 0;  // now a flat vector
        break;
      }
    }
  }
  return h;
}

float DeviceSimBackend::device_accuracy(const rdo::nn::DataView& test,
                                        std::int64_t batch) const {
  if (test.images == nullptr || test.labels == nullptr) {
    throw std::invalid_argument(
        "DeviceSimBackend::evaluate: test set without images or labels");
  }
  const rdo::nn::Tensor& images = *test.images;
  int channels = 0, height = 0, width = 0;  // rank 2: flat samples
  if (images.rank() == 4) {
    channels = static_cast<int>(images.dim(1));
    height = static_cast<int>(images.dim(2));
    width = static_cast<int>(images.dim(3));
  } else if (images.rank() != 2) {
    throw std::invalid_argument(
        "DeviceSimBackend::evaluate: test images must be [N, features] or "
        "[N, C, H, W], got rank " + std::to_string(images.rank()));
  }
  const std::int64_t n = test.size();
  if (n == 0) {
    throw std::invalid_argument("DeviceSimBackend::evaluate: empty test set");
  }
  if (static_cast<std::int64_t>(test.labels->size()) < n) {
    throw std::invalid_argument(
        "DeviceSimBackend::evaluate: " +
        std::to_string(test.labels->size()) + " labels for " +
        std::to_string(n) + " test images");
  }
  if (batch < 1) {
    throw std::invalid_argument(
        "DeviceSimBackend::evaluate: batch " + std::to_string(batch) +
        " < 1");
  }
  const std::int64_t sample = images.size() / n;
  // Batched inference: forward_batch is const and every stage reads only
  // state frozen since the last program_cycle()/tune(), so pool chunks
  // classify concurrently, each `batch` samples at a time. A sample's
  // logits do not depend on the batch it rides in, each verdict lands in
  // its own slot, and the final reduction is an integer sum, so the
  // accuracy is bit-identical for any thread count and batch size.
  std::vector<unsigned char> hit(static_cast<std::size_t>(n), 0);
  rdo::obs::TraceSpan span("sim:evaluate", "sim");
  span.arg("n", n);
  rdo::nn::parallel_for(n, [&](std::int64_t i0, std::int64_t i1) {
    rdo::obs::TraceSpan chunk_span("sim:evaluate_chunk", "sim");
    chunk_span.arg("begin", i0);
    chunk_span.arg("end", i1);
    for (std::int64_t b0 = i0; b0 < i1; b0 += batch) {
      const std::int64_t b1 = std::min(i1, b0 + batch);
      const float* src = images.data() + b0 * sample;
      const std::vector<double> logits =
          forward_batch(std::vector<double>(src, src + (b1 - b0) * sample),
                        b1 - b0, channels, height, width);
      const std::int64_t classes =
          static_cast<std::int64_t>(logits.size()) / (b1 - b0);
      for (std::int64_t i = b0; i < b1; ++i) {
        const double* row = logits.data() + (i - b0) * classes;
        const std::int64_t arg = std::max_element(row, row + classes) - row;
        hit[static_cast<std::size_t>(i)] =
            arg == (*test.labels)[static_cast<std::size_t>(i)] ? 1 : 0;
      }
    }
  });
  int correct = 0;
  for (unsigned char b : hit) correct += b;
  return static_cast<float>(correct) / static_cast<float>(n);
}

float DeviceSimBackend::evaluate(const rdo::nn::DataView& test,
                                 std::int64_t batch) {
  RDO_CHECK(weights_deployed_, "DeviceSimBackend: program_cycle() first");
  rdo::obs::TraceSpan span("deploy:evaluate", "deploy", &stats_.eval_s);
  span.arg("batch", batch);
  const float acc = device_accuracy(test, batch);
  stats_.eval_seconds.push_back(span.seconds());
  span.arg("accuracy", static_cast<double>(acc));
  stats_.eval_accuracy.push_back(acc);
  return acc;
}

std::int64_t DeviceSimBackend::crossbar_count() const {
  std::int64_t n = 0;
  for (const Stage& s : stages_) {
    if (s.exec) n += s.exec->crossbar_count();
  }
  return n;
}

}  // namespace rdo::sim
