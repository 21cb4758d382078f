// SGD optimizer semantics and convergence.
#include <gtest/gtest.h>

#include "nn/optimizer.h"

using namespace rdo::nn;

TEST(SGD, PlainStepDescendsGradient) {
  Param p({2});
  p.value[0] = 1.0f;
  p.value[1] = -1.0f;
  p.grad[0] = 0.5f;
  p.grad[1] = -0.5f;
  SGD opt({&p}, /*lr=*/0.1f, /*momentum=*/0.0f);
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.95f);
  EXPECT_FLOAT_EQ(p.value[1], -0.95f);
}

TEST(SGD, StepZeroesGradient) {
  Param p({1});
  p.grad[0] = 1.0f;
  SGD opt({&p}, 0.1f);
  opt.step();
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(SGD, MomentumAccumulates) {
  Param p({1});
  SGD opt({&p}, 1.0f, /*momentum=*/0.5f);
  p.grad[0] = 1.0f;
  opt.step();  // v = 1, w = -1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  p.grad[0] = 1.0f;
  opt.step();  // v = 1.5, w = -2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(SGD, WeightDecayShrinksWeights) {
  Param p({1});
  p.value[0] = 10.0f;
  SGD opt({&p}, 0.1f, 0.0f, /*weight_decay=*/0.1f);
  opt.step();  // grad = 0 + 0.1*10 = 1; w = 10 - 0.1
  EXPECT_FLOAT_EQ(p.value[0], 9.9f);
}

TEST(SGD, SkipsNonTrainableParams) {
  Param p({1});
  p.value[0] = 1.0f;
  p.grad[0] = 1.0f;
  p.trainable = false;
  SGD opt({&p}, 0.1f);
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f);
}

TEST(SGD, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by feeding grad = 2(w - 3).
  Param p({1});
  p.value[0] = 0.0f;
  SGD opt({&p}, 0.1f, 0.0f);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-4f);
}

TEST(SGD, LrSetterTakesEffect) {
  Param p({1});
  SGD opt({&p}, 0.1f, 0.0f);
  opt.set_lr(1.0f);
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  p.grad[0] = 1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
}

TEST(SGD, ZeroGradClearsAll) {
  Param a({2}), b({3});
  a.grad.fill(1.0f);
  b.grad.fill(2.0f);
  SGD opt({&a, &b}, 0.1f);
  opt.zero_grad();
  for (std::int64_t i = 0; i < a.grad.size(); ++i) EXPECT_EQ(a.grad[i], 0.0f);
  for (std::int64_t i = 0; i < b.grad.size(); ++i) EXPECT_EQ(b.grad[i], 0.0f);
}
