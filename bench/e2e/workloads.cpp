#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/backend.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "nn/trainer.h"
#include "obs/envvar.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "quant/act_quant.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/device_backend.h"

namespace rdo::e2e {

namespace {

using core::Scheme;
using obs::Json;
using rram::CellKind;

// ---------------------------------------------------------------------------
// Fixed models and data. Nothing here depends on --seed, so set-up does the
// same work on every run.

constexpr int kLenetEpochs = 4;
constexpr int kMlpEpochs = 6;

data::SyntheticDataset lenet_data() {
  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = 100;
  spec.test_per_class = 30;  // the 300-sample test set of the paper sweeps
  spec.noise = 0.25;
  return data::make_synthetic(spec);
}

data::SyntheticDataset mlp_data() {
  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = 100;
  spec.test_per_class = 100;  // the 1000-sample split the service serves
  return data::make_synthetic(spec);
}

std::unique_ptr<nn::Sequential> train_lenet(const data::SyntheticDataset& ds) {
  nn::Rng init(31);
  std::unique_ptr<nn::Sequential> net = models::make_lenet({}, init);
  nn::Rng rng(32);
  nn::SGD opt(net->params(), 0.02f, 0.9f, 1e-4f);
  for (int e = 0; e < kLenetEpochs; ++e) {
    nn::train_epoch(*net, opt, ds.train(), 32, rng);
  }
  return net;
}

/// The rdo_serve MLP: 784-64-10 with 8-bit activation quantizers.
std::unique_ptr<nn::Sequential> train_mlp(const data::SyntheticDataset& ds) {
  nn::Rng rng(1);
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Flatten>();
  net->emplace<quant::ActQuant>(8);
  net->emplace<nn::Dense>(28 * 28, 64, rng);
  net->emplace<nn::ReLU>();
  net->emplace<quant::ActQuant>(8);
  net->emplace<nn::Dense>(64, 10, rng);
  nn::SGD opt(net->params(), 0.05f, 0.9f, 1e-4f);
  for (int e = 0; e < kMlpEpochs; ++e) {
    nn::train_epoch(*net, opt, ds.train(), 32, rng);
  }
  return net;
}

/// Deployment settings of the paper-figure harnesses (K x J 16 x 8,
/// grad_samples 256, PWT 2 epochs x 400 samples, on/off ratio 200).
core::DeployOptions deploy_options(Scheme scheme, int m, CellKind cell,
                                   double sigma, std::uint64_t seed) {
  core::DeployOptions o;
  o.scheme = scheme;
  o.offsets.m = m;
  o.cell = {cell, 200.0};
  o.variation.sigma = sigma;
  o.lut_k_sets = 16;
  o.lut_j_cycles = 8;
  o.grad_samples = 256;
  o.pwt.epochs = 2;
  o.pwt.max_samples = 400;
  o.seed = seed;
  return o;
}

std::string config_label(Scheme s, CellKind c, int m) {
  return std::string(core::to_string(s)) + "/" + rram::to_string(c) + "/m" +
         std::to_string(m);
}

// ---------------------------------------------------------------------------
// Seeded inputs. Every generated value comes from its own sub-stream of the
// run seed, so adding a draw to one stream never shifts another.

enum class Stream : std::uint64_t {
  kPlanSeed = 1,
  kConfig,
  kCycle,
  kSlice,
  kMix,
  kReplay
};

nn::Rng stream(std::uint64_t seed, Stream s, std::uint64_t item = 0) {
  return nn::Rng(seed).split(static_cast<std::uint64_t>(s)).split(item);
}

/// DeployOptions::seed of one compiled config (LUT draws, device streams).
/// One per config rather than one per run, so a run averages over many
/// LUT realizations. Kept below 2^63: the serve protocol takes it as a
/// non-negative JSON integer.
std::uint64_t plan_seed(std::uint64_t seed, std::uint64_t item) {
  return stream(seed, Stream::kPlanSeed, item).seed() >> 1;
}

std::uint64_t draw_cycle(std::uint64_t seed, std::int64_t item,
                         std::int64_t hi) {
  return static_cast<std::uint64_t>(
      stream(seed, Stream::kCycle, static_cast<std::uint64_t>(item))
          .uniform_int(0, hi));
}

/// The two operating points of the paper-figure harnesses: the calibrated
/// sigma* and the nominal sigma, which is also what the serve protocol's
/// example request and the CI serve smoke ask for. Drawn sigmas span them.
constexpr double kSigmaStar = 0.3;
constexpr double kSigmaNominal = 0.5;

/// Sigma of the j-th of k configs of one family: uniform over the range,
/// one draw in each of k equal bands, so every seed covers the range.
double draw_sigma(std::uint64_t seed, std::uint64_t item, std::int64_t j,
                  std::int64_t k) {
  const double u = stream(seed, Stream::kConfig, item).uniform();
  return kSigmaStar + (kSigmaNominal - kSigmaStar) * (static_cast<double>(j) + u) /
                          static_cast<double>(k);
}

template <typename T>
void shuffle(std::vector<T>& v, nn::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

/// A self-contained evaluation batch cut from a dataset.
struct Slice {
  nn::Tensor images;
  std::vector<int> labels;

  Slice(const nn::DataView& src, std::int64_t offset, std::int64_t count) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = 0; i < count; ++i) idx.push_back(offset + i);
    images = nn::gather_batch(*src.images, idx);
    labels.assign(src.labels->begin() + offset,
                  src.labels->begin() + offset + count);
  }
  [[nodiscard]] nn::DataView view() const { return {&images, &labels}; }
};

/// Run `f` inside a benchmark span; a throw is recorded on the span.
template <typename F>
decltype(auto) in_span(const char* name, F&& f) {
  obs::TraceSpan span(name, "e2e");
  try {
    return f();
  } catch (const std::exception& e) {
    span.arg("error", std::string(e.what()));
    throw;
  }
}

/// A fresh mkdtemp directory under $TMPDIR (default /tmp), removed with
/// its contents on destruction.
class TempDir {
 public:
  TempDir() {
    const char* root = obs::env_knob("TMPDIR");
    std::string tmpl = std::string(root != nullptr && root[0] != '\0' ? root : "/tmp") +
                       "/rdo_e2e_plans_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + tmpl);
    }
    path_ = buf.data();
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Per-layer values shared by several workloads.

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Samples evaluated by the ops that report an accuracy.
double evaluated_samples(const std::vector<OpOutcome>& ops) {
  double n = 0.0;
  for (const OpOutcome& o : ops) {
    if (o.accuracy >= 0.0f) n += static_cast<double>(o.samples);
  }
  return n;
}

/// EffectiveWeightBackend layers, from the spans named around its
/// program_cycle, tune and evaluate calls.
void backend_values(const SpanLedger& spans, const std::string& program,
                    const std::string& tune, const std::string& evaluate,
                    const std::vector<OpOutcome>& ops, LayerValues& v) {
  const SpanTotals t = span_totals(spans, tune);
  const SpanTotals e = span_totals(spans, evaluate);
  v["backend.program_ms"] = span_totals(spans, program).mean_ms();
  v["backend.tune_ms"] = t.mean_ms();
  v["backend.tune_share"] = ratio(t.busy_ms, span_totals(spans, "e2e:op").busy_ms);
  v["backend.pwt_batches"] =
      ratio(static_cast<double>(span_totals(spans, "pwt:batch").count),
            static_cast<double>(ops.size()));
  v["backend.evaluate_ms"] = e.mean_ms();
  v["backend.evaluate_us_per_sample"] = 1e3 * ratio(e.busy_ms, evaluated_samples(ops));
}

/// Compile-stage phases, per cold compile, from the library's own spans.
void compile_phase_values(const SpanLedger& spans, LayerValues& v) {
  v["rram.lut_build_ms"] = span_totals(spans, "deploy:lut_build").mean_ms();
  v["core.prepare_ms"] = span_totals(spans, "deploy:prepare").mean_ms();
  v["core.vawo_solve_ms"] = span_totals(spans, "deploy:vawo_solve").mean_ms();
}

// ---------------------------------------------------------------------------
// sweep_lenet_pwt: the paper's offline use — Monte-Carlo trials of the full
// method over CCV draws, PWT-dominated.

class SweepLenetPwt final : public Workload {
 public:
  explicit SweepLenetPwt(std::uint64_t seed) : seed_(seed) {
    for (Scheme s : {Scheme::VAWOStarPWT, Scheme::PWT}) {
      for (int m : {16, 128}) {
        for (double sigma : {kSigmaStar, kSigmaNominal}) {
          const std::uint64_t item = points_.size();
          points_.push_back(deploy_options(s, m, CellKind::SLC, sigma,
                                           plan_seed(seed_, item)));
          char sig[16];
          std::snprintf(sig, sizeof(sig), "/s%.1f", sigma);
          labels_.push_back(config_label(s, CellKind::SLC, m) + sig);
        }
      }
    }
  }

  /// 8 grid points x 16 trials. Every run completes the round, so at
  /// least 12 trials lie beyond p90.
  [[nodiscard]] std::int64_t default_round() const override { return 128; }
  [[nodiscard]] bool fans_out_over_pool() const override { return true; }
  [[nodiscard]] double train_seconds() const override { return train_s_; }
  [[nodiscard]] std::string op_class(std::int64_t spec) const override {
    return labels_[point(spec)];
  }

  void setup(std::int64_t round) override {
    state_.reset();
    auto st = std::make_unique<State>();
    st->ds = lenet_data();
    obs::Stopwatch watch;
    st->net = train_lenet(st->ds);
    train_s_ = watch.seconds();
    // Points are compiled once; every trial of a point shares its plan.
    st->plans.resize(points_.size());
    nn::parallel_for(static_cast<std::int64_t>(points_.size()),
                     [&](std::int64_t p0, std::int64_t p1) {
                       for (std::int64_t p = p0; p < p1; ++p) {
                         const auto i = static_cast<std::size_t>(p);
                         st->plans[i] = std::make_unique<core::DeploymentPlan>(
                             core::compile_plan(*st->net, points_[i],
                                                st->ds.train()));
                       }
                     });
    for (std::int64_t spec = 0; spec < round; ++spec) {
      st->cycles.push_back(draw_cycle(seed_, spec, 1 << 20));
    }
    state_ = std::move(st);
  }

  void run_op(std::int64_t spec, OpOutcome& out) override {
    const State& st = *state_;
    auto backend = in_span("e2e:backend_create", [&] {
      return std::make_unique<core::EffectiveWeightBackend>(*st.plans[point(spec)],
                                                            *st.net);
    });
    in_span("e2e:program", [&] {
      backend->program_cycle(st.cycles[static_cast<std::size_t>(spec)]);
    });
    in_span("e2e:tune", [&] { backend->tune(st.ds.train()); });
    out.accuracy =
        in_span("e2e:evaluate", [&] { return backend->evaluate(st.ds.test()); });
    out.samples = st.ds.test().size();
    out.stats = backend->stats();
  }

  void layer_values(const SpanLedger& spans, const std::vector<OpOutcome>& ops,
                    LayerValues& v) const override {
    backend_values(spans, "e2e:program", "e2e:tune", "e2e:evaluate", ops, v);
  }

 private:
  struct State {
    data::SyntheticDataset ds;
    std::unique_ptr<nn::Sequential> net;
    std::vector<std::unique_ptr<core::DeploymentPlan>> plans;
    std::vector<std::uint64_t> cycles;
  };
  [[nodiscard]] std::size_t point(std::int64_t spec) const {
    return static_cast<std::size_t>(spec % static_cast<std::int64_t>(points_.size()));
  }

  std::uint64_t seed_;
  std::vector<core::DeployOptions> points_;
  std::vector<std::string> labels_;
  double train_s_ = 0.0;
  std::unique_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// compile_mlp_sim: the compile stage and the device simulator, no PWT.

class CompileMlpSim final : public Workload {
 public:
  explicit CompileMlpSim(std::uint64_t seed) : seed_(seed) {
    for (Scheme s : {Scheme::VAWO, Scheme::VAWOStar}) {
      for (CellKind c : {CellKind::SLC, CellKind::MLC2}) {
        for (int m : {16, 64, 128}) combos_.push_back({s, c, m});
      }
    }
  }

  /// 12 config families x 16 sigmas.
  [[nodiscard]] std::int64_t default_round() const override { return 192; }
  [[nodiscard]] bool fans_out_over_pool() const override { return true; }
  [[nodiscard]] double train_seconds() const override { return train_s_; }
  [[nodiscard]] std::string op_class(std::int64_t spec) const override {
    const Combo& c = combo(spec);
    return config_label(c.scheme, c.cell, c.m);
  }

  void setup(std::int64_t round) override {
    state_.reset();
    auto st = std::make_unique<State>();
    st->ds = mlp_data();
    obs::Stopwatch watch;
    st->net = train_mlp(st->ds);
    train_s_ = watch.seconds();
    st->passes = core::opt::registered_passes();
    const nn::DataView test = st->ds.test();
    const auto families = static_cast<std::int64_t>(combos_.size());
    const std::int64_t per_family = (round + families - 1) / families;
    for (std::int64_t spec = 0; spec < round; ++spec) {
      // A sigma per op, so every config of the round is distinct and
      // nothing can be served from a cache.
      const Combo& c = combo(spec);
      const auto item = static_cast<std::uint64_t>(spec);
      st->ops.push_back(
          {deploy_options(c.scheme, c.m, c.cell,
                          draw_sigma(seed_, item, spec / families, per_family),
                          plan_seed(seed_, item)),
           draw_cycle(seed_, spec, 1 << 20),
           stream(seed_, Stream::kSlice, item).uniform_int(0, test.size() - kEvalSamples)});
    }
    state_ = std::move(st);
  }

  void run_op(std::int64_t spec, OpOutcome& out) override {
    const State& st = *state_;
    const Op& op = st.ops[static_cast<std::size_t>(spec)];
    core::DeploymentPlan plan = in_span("e2e:compile_plan", [&] {
      return core::compile_plan(*st.net, op.options, st.ds.train());
    });
    in_span("e2e:opt_pipeline",
            [&] { core::opt::run_pipeline(plan, st.passes); });
    auto sim = in_span("e2e:sim_create", [&] {
      return std::make_unique<sim::DeviceSimBackend>(plan, *st.net);
    });
    in_span("e2e:sim_program", [&] { sim->program_cycle(op.cycle); });
    const Slice slice(st.ds.test(), op.offset, kEvalSamples);
    out.accuracy = in_span("e2e:sim_evaluate",
                           [&] { return sim->evaluate(slice.view()); });
    out.samples = kEvalSamples;
    out.stats = plan.compile_stats;
    out.stats.merge(sim->stats());
    out.tag = "registers=" + std::to_string(plan.total_offset_registers());
  }

  void layer_values(const SpanLedger& spans, const std::vector<OpOutcome>& ops,
                    LayerValues& v) const override {
    compile_phase_values(spans, v);
    v["core.compile_ms"] = span_totals(spans, "e2e:compile_plan").mean_ms();
    v["core_opt.pipeline_ms"] = span_totals(spans, "e2e:opt_pipeline").mean_ms();
    v["sim.program_ms"] = span_totals(spans, "e2e:sim_program").mean_ms();
    v["sim.evaluate_us_per_sample"] =
        1e3 * ratio(span_totals(spans, "e2e:sim_evaluate").busy_ms,
                    evaluated_samples(ops));
  }

 private:
  static constexpr std::int64_t kEvalSamples = 64;
  struct Combo {
    Scheme scheme;
    CellKind cell;
    int m;
  };
  struct Op {
    core::DeployOptions options;
    std::uint64_t cycle = 0;
    std::int64_t offset = 0;  ///< of the evaluated test slice
  };
  struct State {
    data::SyntheticDataset ds;
    std::unique_ptr<nn::Sequential> net;
    std::vector<std::string> passes;
    std::vector<Op> ops;
  };
  [[nodiscard]] const Combo& combo(std::int64_t spec) const {
    return combos_[static_cast<std::size_t>(spec %
                                            static_cast<std::int64_t>(combos_.size()))];
  }

  std::uint64_t seed_;
  std::vector<Combo> combos_;
  double train_s_ = 0.0;
  std::unique_ptr<State> state_;
};

// ---------------------------------------------------------------------------
// serve_hot / serve_churn: the online use — line requests answered by an
// in-process InferenceService, one closed-loop caller per client thread.

/// Samples active/queued requests of the admission gate every millisecond
/// while alive (traced runs only; the thread sleeps between samples).
class GateSampler {
 public:
  explicit GateSampler(serve::AdmissionGate& gate)
      : th_([this, &gate] {
          std::unique_lock<std::mutex> lk(mu_);
          while (!cv_.wait_for(lk, std::chrono::milliseconds(1),
                               [this] { return stop_; })) {
            active_sum_ += gate.active();
            queued_max_ = std::max(queued_max_, gate.queued());
            ++samples_;
          }
        }) {}
  ~GateSampler() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  GateSampler(const GateSampler&) = delete;
  GateSampler& operator=(const GateSampler&) = delete;

  [[nodiscard]] double active_mean() const {
    std::lock_guard<std::mutex> lk(mu_);
    return samples_ > 0 ? static_cast<double>(active_sum_) /
                              static_cast<double>(samples_)
                        : 0.0;
  }
  [[nodiscard]] int queued_max() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queued_max_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::int64_t active_sum_ = 0;
  std::int64_t samples_ = 0;
  int queued_max_ = 0;
  std::thread th_;  // last: starts after the fields it reads
};

enum class ReqKind { Evaluate, Stats, Malformed };

struct Request {
  ReqKind kind = ReqKind::Evaluate;
  std::string line;
  std::int64_t samples = 0;
  std::string cls;  ///< latency class
};

/// Lines every one of which the protocol must answer with bad_request.
const std::vector<std::string>& malformed_lines() {
  static const std::vector<std::string> lines = {
      R"({"id": 1, "op": "evaluate", "config": {"sigma": 0.4)",
      R"({"id": 2, "op": "explode"})",
      R"({"id": 3, "op": "evaluate", "config": {"sigma": 9.5}})",
      R"({"id": 4, "op": "evaluate", "data": {"split": "test", "offset": 5000, "count": 8}})",
      R"({"id": 5, "op": "evaluate", "config": {"turbo": true}})",
      R"({"id": 6, "op": "evaluate", "cycle": -3})",
  };
  return lines;
}

/// The request mix of both serve workloads: 2 % stats, 2 % malformed,
/// the rest evaluate with slice sizes {8, 64, 512} at weights
/// {.5, .4, .1}.
constexpr double kStatsShare = 0.02;
constexpr double kMalformedShare = 0.02;
constexpr std::array<std::int64_t, 3> kSliceSizes = {8, 64, 512};
constexpr std::array<double, 3> kSliceWeights = {0.5, 0.4, 0.1};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, int threads, bool churn)
      : seed_(seed), threads_(threads), churn_(churn) {}

  [[nodiscard]] std::int64_t default_round() const override {
    return churn_ ? 500 : 1000;
  }
  [[nodiscard]] bool fans_out_over_pool() const override { return false; }
  [[nodiscard]] double train_seconds() const override { return train_s_; }
  [[nodiscard]] std::string op_class(std::int64_t spec) const override {
    return state_->round[static_cast<std::size_t>(spec)].cls;
  }

  void setup(std::int64_t round) override {
    state_.reset();
    auto st = std::make_unique<State>();
    st->ds = mlp_data();
    obs::Stopwatch watch;
    st->net = train_mlp(st->ds);
    train_s_ = watch.seconds();
    st->base = deploy_options(Scheme::VAWOStarPWT, 16, CellKind::SLC, kSigmaNominal,
                              plan_seed(seed_, 0));
    make_configs(*st);
    make_round(*st, round);

    serve::ServeConfig cfg;
    if (churn_) {
      // The plan cache is a fresh directory per set-up; each config's first
      // request compiles and saves, later LRU misses load from disk.
      st->plan_dir = std::make_unique<TempDir>();
      ::setenv("RDO_PLAN_CACHE_DIR", st->plan_dir->path().c_str(), 1);
    } else {
      // Enough idle backends per (plan, cycle) for every client at once.
      cfg.max_backends_per_plan = static_cast<std::size_t>(threads_);
    }
    nn::set_thread_count(1);
    st->service = std::make_unique<serve::InferenceService>(
        *st->net, st->ds.train(), st->ds.test(), st->base, cfg);
    if (!churn_) warm_up(*st);
    state_ = std::move(st);
  }

  void begin_measure(bool traced) override {
    before_ = state_->service->counters();
    cache_before_ = plan_cache_counts();
    if (traced) sampler_ = std::make_unique<GateSampler>(state_->service->gate());
  }

  void end_measure() override {
    after_ = state_->service->counters();
    cache_after_ = plan_cache_counts();
    if (sampler_ != nullptr) {
      active_mean_ = sampler_->active_mean();
      queued_max_ = sampler_->queued_max();
      sampler_.reset();
    }
  }

  void run_op(std::int64_t spec, OpOutcome& out) override {
    const Request& req = state_->round[static_cast<std::size_t>(spec)];
    const std::string resp = in_span("e2e:handle_line", [&] {
      return state_->service->handle_line(req.line);
    });
    const Json doc = Json::parse(resp);
    const Json* ok = doc.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
      throw std::runtime_error("response without \"ok\": " + resp);
    }
    switch (req.kind) {
      case ReqKind::Evaluate: {
        const Json* result = ok->as_bool() ? doc.find("result") : nullptr;
        const Json* acc = result != nullptr ? result->find("accuracy") : nullptr;
        const Json* samples = result != nullptr ? result->find("samples") : nullptr;
        if (acc == nullptr || !acc->is_number() || samples == nullptr ||
            !samples->is_int() || samples->as_int() != req.samples) {
          throw std::runtime_error("evaluate failed: " + resp);
        }
        out.accuracy = static_cast<float>(acc->as_double());
        out.samples = req.samples;
        break;
      }
      case ReqKind::Stats: {
        const Json* result = ok->as_bool() ? doc.find("result") : nullptr;
        if (result == nullptr || result->find("requests") == nullptr) {
          throw std::runtime_error("stats failed: " + resp);
        }
        out.tag = "stats";
        break;
      }
      case ReqKind::Malformed: {
        const Json* err = ok->as_bool() ? nullptr : doc.find("error");
        const Json* code = err != nullptr ? err->find("code") : nullptr;
        if (code == nullptr || !code->is_string() ||
            code->as_string() != "bad_request") {
          throw std::runtime_error("malformed line not rejected: " + resp);
        }
        out.tag = code->as_string();
        break;
      }
    }
  }

  /// parse_request and plan_fingerprint run inside handle_line, where the
  /// benchmark cannot wrap them: time them on the round's first evaluate
  /// requests. serve_churn also saves and loads a plan the way its cache
  /// does.
  void probe() override {
    State& st = *state_;
    const nn::DataView train = st.ds.train();
    std::vector<const Request*> evaluates;
    for (const Request& r : st.round) {
      if (r.kind == ReqKind::Evaluate && evaluates.size() < kProbeReps) {
        evaluates.push_back(&r);
      }
    }
    for (const Request* r : evaluates) {
      const serve::ServeRequest req = in_span("e2e:probe:parse", [&] {
        return serve::parse_request(Json::parse(r->line), st.base);
      });
      in_span("e2e:probe:fingerprint",
              [&] { return core::plan_fingerprint(*st.net, req.options, train); });
    }
    if (!churn_ || evaluates.empty()) return;
    // The measured phase cached this config's plan, so this loads it from
    // the plan cache instead of compiling (which would add compile spans).
    const core::DeployOptions options =
        serve::parse_request(Json::parse(evaluates[0]->line), st.base).options;
    const core::DeploymentPlan plan = core::compile_plan(*st.net, options, train);
    const std::uint64_t fp = core::plan_fingerprint(*st.net, options, train);
    const std::string path = st.plan_dir->path() + "/probe.rdp";
    for (std::size_t k = 0; k < kProbeReps; ++k) {
      in_span("e2e:probe:save", [&] { plan.save(path, fp); });
      in_span("e2e:probe:load", [&] {
        if (!core::DeploymentPlan::load(path, fp)) {
          throw std::runtime_error("saved plan did not load back");
        }
      });
    }
  }

  /// Re-run seeded sampled evaluate requests directly on an
  /// EffectiveWeightBackend (same plan options, cycle and slice, compiled
  /// cold) and require the served accuracy bit for bit.
  std::vector<std::pair<std::int64_t, std::string>> verify(
      const std::map<std::int64_t, const OpOutcome*>& first_by_spec,
      std::vector<std::int64_t>& digest_counters) override {
    State& st = *state_;
    ::unsetenv("RDO_PLAN_CACHE_DIR");
    std::vector<std::int64_t> candidates;
    for (const auto& [spec, op] : first_by_spec) {
      if (op->error.empty() && op->accuracy >= 0.0f) candidates.push_back(spec);
    }
    nn::Rng pick = stream(seed_, Stream::kReplay);
    std::vector<std::int64_t> chosen;
    while (!candidates.empty() && chosen.size() < kReplays) {
      const auto i = static_cast<std::size_t>(pick.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1));
      chosen.push_back(candidates[i]);
      candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::sort(chosen.begin(), chosen.end());
    std::vector<float> replayed(chosen.size(), -1.0f);
    std::vector<core::DeployStats> stats(chosen.size());
    std::vector<std::string> errors(chosen.size());
    nn::parallel_for(static_cast<std::int64_t>(chosen.size()),
                     [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const auto i = static_cast<std::size_t>(r);
        try {
          const Request& req = st.round[static_cast<std::size_t>(chosen[i])];
          const serve::ServeRequest parsed =
              serve::parse_request(Json::parse(req.line), st.base);
          const core::DeploymentPlan plan =
              core::compile_plan(*st.net, parsed.options, st.ds.train());
          core::EffectiveWeightBackend backend(plan, *st.net);
          backend.program_cycle(parsed.cycle);
          backend.tune(st.ds.train());
          const Slice slice(st.ds.test(), parsed.data.offset, parsed.data.count);
          replayed[i] = backend.evaluate(slice.view(), parsed.batch);
          stats[i] = backend.stats();
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
    std::vector<std::pair<std::int64_t, std::string>> bad;
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const float served = first_by_spec.at(chosen[i])->accuracy;
      if (!errors[i].empty()) {
        bad.emplace_back(chosen[i], "replay threw: " + errors[i]);
      } else if (std::memcmp(&served, &replayed[i], sizeof(float)) != 0) {
        bad.emplace_back(chosen[i], "served accuracy " + std::to_string(served) +
                                        " != direct backend " +
                                        std::to_string(replayed[i]));
      }
      const core::DeployStats& s = stats[i];
      for (std::int64_t v : {chosen[i], s.cycles, s.weights_programmed,
                             s.device_pulses, s.pwt_batches,
                             s.pwt_offset_updates}) {
        digest_counters.push_back(v);
      }
    }
    return bad;
  }

  void layer_values(const SpanLedger& spans, const std::vector<OpOutcome>& ops,
                    LayerValues& v) const override {
    // The service's backends, and on churn its cold compiles, run inside
    // handle_line; the library's own spans time them.
    backend_values(spans, "deploy:program", "deploy:tune", "deploy:evaluate", ops, v);
    v["serve.fingerprint_ms"] = span_totals(spans, "e2e:probe:fingerprint").mean_ms();
    v["serve.parse_ms"] = span_totals(spans, "e2e:probe:parse").mean_ms();
    // Request time outside the library's spans: parse, fingerprint, slice
    // gather, LRU and lock waits, plan save, response. Measured directly;
    // subtracting the probed parse and fingerprint from it would leave a
    // difference of two noisy numbers of the same size.
    const SpanTotals request = span_totals(spans, "serve:request");
    v["serve.overhead_ms"] = ratio(request.self_ms, static_cast<double>(request.count));

    const auto rate = [](std::int64_t num, std::int64_t den) {
      return ratio(static_cast<double>(num), static_cast<double>(den));
    };
    const std::int64_t hits = after_.plan_hits - before_.plan_hits;
    const std::int64_t misses = after_.plan_misses - before_.plan_misses;
    const std::int64_t reuses = after_.backend_reuses - before_.backend_reuses;
    const std::int64_t creates = after_.backend_creates - before_.backend_creates;
    v["serve.plan_hit_rate"] = rate(hits, hits + misses);
    v["serve.backend_reuse_rate"] = rate(reuses, reuses + creates);
    v["serve.plan_evictions"] =
        static_cast<double>(after_.plan_evictions - before_.plan_evictions);
    v["serve.active_mean"] = active_mean_;
    v["serve.queued_max"] = queued_max_;
    if (churn_) {
      compile_phase_values(spans, v);
      // compile_plan runs inside handle_line: its LUT build and prepare
      // (which contains the VAWO solve) stand for the call.
      v["core.compile_ms"] = v["rram.lut_build_ms"] + v["core.prepare_ms"];
      const std::int64_t disk_hits = cache_after_.first - cache_before_.first;
      const std::int64_t disk_misses = cache_after_.second - cache_before_.second;
      v["plan_io.disk_hit_rate"] = rate(disk_hits, disk_hits + disk_misses);
      v["plan_io.save_ms"] = span_totals(spans, "e2e:probe:save").mean_ms();
      v["plan_io.load_ms"] = span_totals(spans, "e2e:probe:load").mean_ms();
    }
  }

 private:
  static constexpr std::size_t kReplays = 16;
  static constexpr std::size_t kProbeReps = 16;
  static constexpr int kWarmupRequests = 500;

  struct Config {
    Scheme scheme;
    CellKind cell;
    double sigma;
    std::uint64_t seed;
  };
  struct State {
    data::SyntheticDataset ds;
    std::unique_ptr<nn::Sequential> net;
    core::DeployOptions base;
    std::vector<Config> configs;
    std::vector<std::uint64_t> cycles;  ///< serve_hot's two cycles
    std::vector<Request> round;
    std::unique_ptr<TempDir> plan_dir;
    std::unique_ptr<serve::InferenceService> service;  // after what it reads

    ~State() {
      if (plan_dir != nullptr) ::unsetenv("RDO_PLAN_CACHE_DIR");
    }
    State() = default;
    State(const State&) = delete;
    State& operator=(const State&) = delete;
  };

  /// Both workloads serve the families {VAWO*, VAWO*+PWT} x {SLC, MLC2}
  /// at the service's m = 16, ordered so that neighbouring configs differ
  /// in scheme. serve_hot: one config per family at the nominal sigma
  /// (4 <= max_plans) x 2 cycles. serve_churn: 6 drawn sigmas per family
  /// (24 configs, six times max_plans), cycles uniform in [0, 32).
  void make_configs(State& st) const {
    const int per_family = churn_ ? 6 : 1;
    for (int j = 0; j < per_family; ++j) {
      for (CellKind c : {CellKind::SLC, CellKind::MLC2}) {
        for (Scheme s : {Scheme::VAWOStar, Scheme::VAWOStarPWT}) {
          const std::uint64_t item = st.configs.size() + 1;  // 0 is the base
          const double sigma =
              churn_ ? draw_sigma(seed_, item, j, per_family) : kSigmaNominal;
          st.configs.push_back({s, c, sigma, plan_seed(seed_, item)});
        }
      }
    }
    if (!churn_) {
      st.cycles = {draw_cycle(seed_, 0, 1 << 20), draw_cycle(seed_, 1, 1 << 20)};
    }
  }

  [[nodiscard]] std::string evaluate_line(const State& st, std::int64_t id,
                                          std::size_t config,
                                          std::uint64_t cycle,
                                          std::int64_t count,
                                          std::int64_t offset = 0) const {
    const Config& c = st.configs[config];
    Json cfg = Json::object();
    cfg["scheme"] = core::to_string(c.scheme);
    cfg["cell"] = rram::to_string(c.cell);
    cfg["sigma"] = c.sigma;
    cfg["seed"] = c.seed;
    Json data = Json::object();
    data["split"] = "test";
    data["offset"] = offset;
    data["count"] = count;
    Json r = Json::object();
    r["id"] = id;
    r["op"] = "evaluate";
    r["config"] = std::move(cfg);
    r["cycle"] = cycle;
    r["data"] = std::move(data);
    return r.dump();
  }

  /// A round holds every request kind and slice size in its share of the
  /// mix (rounded), and every config (serve_hot: every config and cycle)
  /// equally often, in a seeded order. Fixed shares keep seeds from
  /// shifting the mix, and so the percentiles.
  void make_round(State& st, std::int64_t round) const {
    struct Slot {
      ReqKind kind = ReqKind::Evaluate;
      std::int64_t samples = 0;
      std::size_t target = 0;  ///< evaluate: config (+ cycle on serve_hot)
      std::size_t variant = 0;  ///< malformed: which line
    };
    const auto share = [](double w, std::int64_t n) {
      return static_cast<std::int64_t>(std::llround(w * static_cast<double>(n)));
    };
    const std::int64_t n_stats = share(kStatsShare, round);
    const std::int64_t n_bad = share(kMalformedShare, round);
    const std::int64_t n_eval = round - n_stats - n_bad;
    nn::Rng order = stream(seed_, Stream::kMix);
    const std::size_t configs = st.configs.size();
    const std::size_t targets = configs * (churn_ ? 1 : st.cycles.size());
    // Evaluate slots take the targets in turn, grouped by slice size, so
    // each slice size meets every config equally often.
    auto target = static_cast<std::size_t>(
        order.uniform_int(0, static_cast<std::int64_t>(targets) - 1));
    std::vector<Slot> slots;
    for (std::int64_t i = 0; i < n_stats; ++i) slots.push_back({ReqKind::Stats});
    for (std::int64_t i = 0; i < n_bad; ++i) {
      slots.push_back({ReqKind::Malformed, 0, 0, static_cast<std::size_t>(i)});
    }
    std::int64_t left = n_eval;
    for (std::size_t k = kSliceSizes.size(); k-- > 0;) {
      const std::int64_t n = k == 0 ? left : share(kSliceWeights[k], n_eval);
      for (std::int64_t i = 0; i < n; ++i) {
        slots.push_back({ReqKind::Evaluate, kSliceSizes[k], target});
        target = (target + 1) % targets;
      }
      left -= n;
    }
    shuffle(slots, order);

    st.round.clear();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      const auto spec = static_cast<std::int64_t>(i);
      Request req;
      req.kind = slot.kind;
      req.samples = slot.samples;
      switch (slot.kind) {
        case ReqKind::Stats:
          req.line = R"({"id": )" + std::to_string(spec) + R"(, "op": "stats"})";
          req.cls = "stats";
          break;
        case ReqKind::Malformed: {
          const auto& bad = malformed_lines();
          req.line = bad[slot.variant % bad.size()];
          req.cls = "malformed";
          break;
        }
        case ReqKind::Evaluate: {
          const std::size_t config = slot.target % configs;
          nn::Rng draw = stream(seed_, Stream::kSlice, static_cast<std::uint64_t>(spec));
          const std::uint64_t cycle =
              churn_ ? static_cast<std::uint64_t>(draw.uniform_int(0, 31))
                     : st.cycles[slot.target / configs];
          const std::int64_t offset = draw.uniform_int(0, st.ds.test().size() - slot.samples);
          req.line = evaluate_line(st, spec, config, cycle, slot.samples, offset);
          // On serve_churn nearly every request builds a backend, whose
          // cost depends on the scheme; on serve_hot only the slice counts.
          req.cls = (churn_ ? std::string(core::to_string(st.configs[config].scheme)) + "/"
                            : std::string()) +
                    "evaluate/" + std::to_string(slot.samples);
          break;
        }
      }
      st.round.push_back(std::move(req));
    }
  }

  /// Untimed-by-the-ops warm-up: every (config, cycle) pair is compiled,
  /// programmed and tuned before the measured phase.
  void warm_up(State& st) const {
    std::vector<std::string> lines;
    for (int k = 0; k < kWarmupRequests; ++k) {
      const std::size_t pair = static_cast<std::size_t>(k) % (st.configs.size() * 2);
      lines.push_back(evaluate_line(st, k, pair / 2, st.cycles[pair % 2],
                                    kSliceSizes[static_cast<std::size_t>(k) % 3]));
    }
    std::atomic<std::size_t> next{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < threads_; ++c) {
      clients.emplace_back([&] {
        for (std::size_t i = next++; i < lines.size(); i = next++) {
          if (st.service->handle_line(lines[i]).find("\"ok\":true") ==
              std::string::npos) {
            ++failures;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    if (failures.load() != 0) throw std::runtime_error("warm-up requests failed");
  }

  static std::pair<std::int64_t, std::int64_t> plan_cache_counts() {
    obs::MetricsRegistry& g = obs::global_metrics();
    return {g.counter("deploy_plan_cache_hits").value(),
            g.counter("deploy_plan_cache_misses").value()};
  }

  std::uint64_t seed_;
  int threads_;
  bool churn_;
  double train_s_ = 0.0;
  std::unique_ptr<State> state_;
  serve::ServeCounters before_, after_;
  std::pair<std::int64_t, std::int64_t> cache_before_, cache_after_;
  std::unique_ptr<GateSampler> sampler_;
  double active_mean_ = 0.0;
  int queued_max_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, int threads) {
  if (name == "sweep_lenet_pwt") return std::make_unique<SweepLenetPwt>(seed);
  if (name == "compile_mlp_sim") return std::make_unique<CompileMlpSim>(seed);
  if (name == "serve_hot") return std::make_unique<ServeWorkload>(seed, threads, false);
  if (name == "serve_churn") return std::make_unique<ServeWorkload>(seed, threads, true);
  return nullptr;
}

}  // namespace rdo::e2e
