// Unit tests for the Tensor value type.
#include <gtest/gtest.h>

#include <stdexcept>

#include "nn/tensor.h"

using rdo::nn::Rng;
using rdo::nn::Tensor;

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.rank(), 0);
}

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 4);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({5, 5});
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, RejectsNonPositiveDims) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(Tensor({-1, 3}), std::invalid_argument);
}

TEST(Tensor, Matrix2DIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
  EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, Nchw4DIndexing) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  for (std::int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.rank(), 2);
  EXPECT_EQ(r.dim(0), 3);
  for (std::int64_t i = 0; i < 12; ++i) EXPECT_EQ(r[i], static_cast<float>(i));
}

TEST(Tensor, ReshapeRejectsSizeMismatch) {
  Tensor t({2, 6});
  EXPECT_THROW(t.reshaped({5, 3}), std::invalid_argument);
}

TEST(Tensor, FillAndZero) {
  Tensor t({4});
  t.fill(2.5f);
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
  t.zero();
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, AxpyAccumulates) {
  Tensor a({3}), b({3});
  a.fill(1.0f);
  b.fill(2.0f);
  a.axpy(0.5f, b);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], 2.0f);
}

TEST(Tensor, AxpyRejectsSizeMismatch) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a.axpy(1.0f, b), std::invalid_argument);
}

TEST(Tensor, Scale) {
  Tensor a({2});
  a.fill(3.0f);
  a.scale(-2.0f);
  EXPECT_FLOAT_EQ(a[0], -6.0f);
}

TEST(Tensor, MaxAbs) {
  Tensor a({3});
  a[0] = -5.0f;
  a[1] = 2.0f;
  a[2] = 4.0f;
  EXPECT_FLOAT_EQ(a.max_abs(), 5.0f);
}

TEST(Tensor, KaimingInitStatistics) {
  Rng rng(3);
  Tensor t({100, 50});
  t.kaiming_init(rng, 100);
  const float target_std = std::sqrt(2.0f / 100.0f);
  double mean = 0.0, var = 0.0;
  for (std::int64_t i = 0; i < t.size(); ++i) mean += t[i];
  mean /= static_cast<double>(t.size());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    var += (t[i] - mean) * (t[i] - mean);
  }
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), target_std, 0.01);
}

TEST(Tensor, ShapeStr) {
  Tensor t({2, 3});
  EXPECT_EQ(t.shape_str(), "[2, 3]");
}

TEST(Tensor, CopyIsDeep) {
  Tensor a({2});
  a.fill(1.0f);
  Tensor b = a;
  b[0] = 5.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, NumelHelper) {
  EXPECT_EQ(Tensor::numel({2, 3, 4}), 24);
  EXPECT_EQ(Tensor::numel({7}), 7);
}
