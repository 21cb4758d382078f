// Training loop, evaluation, batch assembly, mean-gradient collection.
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

using namespace rdo::nn;

namespace {

/// Tiny two-blob binary classification task.
struct Toy {
  Tensor images{std::vector<std::int64_t>{40, 1, 2, 2}};
  std::vector<int> labels;

  Toy() {
    Rng rng(5);
    for (std::int64_t i = 0; i < 40; ++i) {
      const int cls = i % 2;
      labels.push_back(cls);
      for (std::int64_t j = 0; j < 4; ++j) {
        images[i * 4 + j] = static_cast<float>(
            (cls ? 0.8 : 0.2) + rng.normal(0.0, 0.05));
      }
    }
  }
  [[nodiscard]] DataView view() const { return {&images, &labels}; }
};

Sequential make_mlp(Rng& rng) {
  Sequential s;
  s.emplace<Flatten>();
  s.emplace<Dense>(4, 8, rng);
  s.emplace<ReLU>();
  s.emplace<Dense>(8, 2, rng);
  return s;
}

}  // namespace

TEST(GatherBatch, CopiesSelectedSamples) {
  Tensor images({3, 1, 1, 2});
  for (std::int64_t i = 0; i < 6; ++i) images[i] = static_cast<float>(i);
  Tensor batch = gather_batch(images, std::vector<std::int64_t>{2, 0});
  EXPECT_EQ(batch.dim(0), 2);
  EXPECT_FLOAT_EQ(batch[0], 4.0f);  // sample 2 first element
  EXPECT_FLOAT_EQ(batch[2], 0.0f);  // sample 0 first element
}

TEST(Trainer, TrainEpochLearnsToy) {
  Toy toy;
  Rng rng(1);
  Sequential net = make_mlp(rng);
  SGD opt(net.params(), 0.2f);
  EpochStats last{};
  for (int e = 0; e < 15; ++e) {
    last = train_epoch(net, opt, toy.view(), 8, rng);
  }
  EXPECT_GT(last.accuracy, 0.95f);
  EXPECT_LT(last.loss, 0.3f);
}

TEST(Trainer, EvaluateMatchesPerfectModel) {
  Toy toy;
  Rng rng(2);
  Sequential net = make_mlp(rng);
  SGD opt(net.params(), 0.2f);
  for (int e = 0; e < 20; ++e) train_epoch(net, opt, toy.view(), 8, rng);
  const EpochStats st = evaluate(net, toy.view(), 16);
  EXPECT_GT(st.accuracy, 0.95f);
}

TEST(Trainer, EvaluateIsDeterministic) {
  Toy toy;
  Rng rng(3);
  Sequential net = make_mlp(rng);
  const float a1 = evaluate(net, toy.view(), 8).accuracy;
  const float a2 = evaluate(net, toy.view(), 8).accuracy;
  EXPECT_FLOAT_EQ(a1, a2);
}

TEST(Trainer, EvaluateIndependentOfBatchSize) {
  Toy toy;
  Rng rng(4);
  Sequential net = make_mlp(rng);
  const float a1 = evaluate(net, toy.view(), 7).accuracy;
  const float a2 = evaluate(net, toy.view(), 40).accuracy;
  EXPECT_FLOAT_EQ(a1, a2);
}

TEST(Trainer, AccumulateMeanGradientsPopulatesGrads) {
  Toy toy;
  Rng rng(5);
  Sequential net = make_mlp(rng);
  accumulate_mean_gradients(net, toy.view(), 8);
  double total = 0.0;
  for (Param* p : net.params()) {
    for (std::int64_t i = 0; i < p->grad.size(); ++i) {
      total += std::abs(p->grad[i]);
    }
  }
  EXPECT_GT(total, 0.0);
}

TEST(Trainer, MeanGradientsScaleWithBatchCount) {
  // The mean over batches must be invariant to how the dataset is split.
  Toy toy;
  Rng rng(6);
  Sequential net = make_mlp(rng);
  accumulate_mean_gradients(net, toy.view(), 40);  // single batch
  std::vector<float> g1;
  for (Param* p : net.params()) {
    for (std::int64_t i = 0; i < p->grad.size(); ++i) {
      g1.push_back(p->grad[i]);
    }
  }
  accumulate_mean_gradients(net, toy.view(), 10);  // four batches
  std::size_t k = 0;
  for (Param* p : net.params()) {
    for (std::int64_t i = 0; i < p->grad.size(); ++i, ++k) {
      EXPECT_NEAR(p->grad[i], g1[k], 1e-4f);
    }
  }
}

TEST(Trainer, MaxSamplesLimitsThePass) {
  Toy toy;
  Rng rng(7);
  Sequential net = make_mlp(rng);
  // Just exercises the truncation path; gradients still populated.
  accumulate_mean_gradients(net, toy.view(), 8, /*max_samples=*/8);
  double total = 0.0;
  for (Param* p : net.params()) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < p->grad.size(); ++i) sum += p->grad[i];
    total += std::abs(sum);
  }
  EXPECT_GT(total, 0.0);
}

TEST(Trainer, DataViewSize) {
  Toy toy;
  EXPECT_EQ(toy.view().size(), 40);
}
