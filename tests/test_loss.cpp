// Softmax cross-entropy: values, gradients, accuracy counting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/check.h"
#include "nn/loss.h"

using namespace rdo::nn;

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});
  const float l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectIsNearZero) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  logits.at(0, 1) = 50.0f;
  EXPECT_NEAR(loss.forward(logits, {1}), 0.0f, 1e-5f);
  EXPECT_EQ(loss.correct(), 1);
}

TEST(SoftmaxCrossEntropy, ConfidentWrongIsLarge) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 3});
  logits.at(0, 0) = 20.0f;
  EXPECT_GT(loss.forward(logits, {2}), 10.0f);
  EXPECT_EQ(loss.correct(), 0);
}

TEST(SoftmaxCrossEntropy, ShiftInvariance) {
  SoftmaxCrossEntropy loss;
  Tensor a({1, 3});
  a.at(0, 0) = 1.0f;
  a.at(0, 1) = 2.0f;
  a.at(0, 2) = 3.0f;
  const float l1 = loss.forward(a, {2});
  for (std::int64_t i = 0; i < 3; ++i) a[i] += 100.0f;
  const float l2 = loss.forward(a, {2});
  EXPECT_NEAR(l1, l2, 1e-5f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifference) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  Rng rng(21);
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    logits[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  const std::vector<int> labels{2, 0};
  loss.forward(logits, labels);
  Tensor g = loss.backward();
  const double eps = 1e-3;
  for (std::int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    logits[i] = orig + static_cast<float>(eps);
    const double lp = loss.forward(logits, labels);
    logits[i] = orig - static_cast<float>(eps);
    const double lm = loss.forward(logits, labels);
    logits[i] = orig;
    EXPECT_NEAR(g[i], (lp - lm) / (2 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, GradientRowsSumToZero) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 5});
  Rng rng(22);
  for (std::int64_t i = 0; i < 5; ++i) {
    logits[i] = static_cast<float>(rng.uniform(-2, 2));
  }
  loss.forward(logits, {3});
  Tensor g = loss.backward();
  double s = 0.0;
  for (std::int64_t i = 0; i < 5; ++i) s += g[i];
  EXPECT_NEAR(s, 0.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, CountsCorrectAcrossBatch) {
  SoftmaxCrossEntropy loss;
  Tensor logits({3, 2});
  logits.at(0, 0) = 1.0f;  // pred 0
  logits.at(1, 1) = 1.0f;  // pred 1
  logits.at(2, 0) = 1.0f;  // pred 0
  loss.forward(logits, {0, 1, 1});
  EXPECT_EQ(loss.correct(), 2);
}

TEST(SoftmaxCrossEntropy, RejectsShapeMismatch) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  EXPECT_THROW(loss.forward(logits, {0}), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, RejectsLabelsOutsideTheClasses) {
  // Labels come from outside the program; the range check holds in
  // every build, NDEBUG or not.
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 3});
  for (const std::vector<int>& labels :
       {std::vector<int>{0, 3}, std::vector<int>{-1, 0}}) {
    try {
      loss.forward(logits, labels);
      ADD_FAILURE() << "label " << labels[0] << ", " << labels[1];
    } catch (const rdo::core::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("BOUNDS(label)"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(loss.forward(logits, {0, 2}));
}

TEST(SoftmaxCrossEntropy, NumericallyStableForExtremeLogits) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 2});
  logits.at(0, 0) = 1000.0f;
  logits.at(0, 1) = -1000.0f;
  const float l = loss.forward(logits, {0});
  EXPECT_TRUE(std::isfinite(l));
  EXPECT_NEAR(l, 0.0f, 1e-5f);
}
