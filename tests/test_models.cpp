// Model builders: shapes, crossbar-layer inventory, trainability.
#include <gtest/gtest.h>

#include "models/lenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/matrix_op.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "quant/act_quant.h"

using namespace rdo;
using namespace rdo::models;

namespace {

int count_matrix_ops(nn::Layer& net) {
  return static_cast<int>(nn::matrix_ops(net).size());
}

int count_act_quants(nn::Layer& net) {
  return static_cast<int>(nn::layers_of<quant::ActQuant>(net).size());
}

nn::Tensor random_images(std::int64_t n, std::int64_t c, std::int64_t hw,
                         std::uint64_t seed) {
  nn::Rng rng(seed);
  nn::Tensor x({n, c, hw, hw});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return x;
}

}  // namespace

TEST(Models, LeNetForwardShape) {
  nn::Rng rng(1);
  auto net = make_lenet({}, rng);
  nn::Tensor y = net->forward(random_images(2, 1, 28, 2), false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 10);
}

TEST(Models, LeNetHasFiveCrossbarLayers) {
  nn::Rng rng(1);
  auto net = make_lenet({}, rng);
  EXPECT_EQ(count_matrix_ops(*net), 5);  // conv x2 + fc x3
}

TEST(Models, LeNetActQuantPerCrossbarLayer) {
  nn::Rng rng(1);
  auto net = make_lenet({}, rng);
  EXPECT_EQ(count_act_quants(*net), 5);
  LeNetConfig cfg;
  cfg.act_quant = false;
  auto bare = make_lenet(cfg, rng);
  EXPECT_EQ(count_act_quants(*bare), 0);
}

TEST(Models, ResNetForwardShape) {
  nn::Rng rng(2);
  ResNetConfig cfg;
  cfg.base_channels = 4;
  auto net = make_resnet(cfg, rng);
  nn::Tensor y = net->forward(random_images(2, 3, 32, 3), false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 10);
}

TEST(Models, ResNetLayerInventory) {
  nn::Rng rng(2);
  ResNetConfig cfg;
  cfg.base_channels = 4;
  cfg.blocks_per_stage = 1;
  auto net = make_resnet(cfg, rng);
  // stem conv + 3 blocks x 2 convs + 2 projection shortcuts + fc = 10.
  EXPECT_EQ(count_matrix_ops(*net), 10);
}

TEST(Models, ResNetDepthScalesWithBlocks) {
  nn::Rng rng(2);
  ResNetConfig one;
  one.base_channels = 4;
  one.blocks_per_stage = 1;
  ResNetConfig two = one;
  two.blocks_per_stage = 2;
  auto n1 = make_resnet(one, rng);
  auto n2 = make_resnet(two, rng);
  EXPECT_GT(count_matrix_ops(*n2), count_matrix_ops(*n1));
}

TEST(Models, VggForwardShape) {
  nn::Rng rng(3);
  VggConfig cfg;
  cfg.base_channels = 4;
  auto net = make_vgg(cfg, rng);
  nn::Tensor y = net->forward(random_images(2, 3, 32, 4), false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 10);
}

TEST(Models, VggLayerInventory) {
  nn::Rng rng(3);
  VggConfig cfg;
  cfg.base_channels = 4;
  cfg.stacks = 3;
  auto net = make_vgg(cfg, rng);
  EXPECT_EQ(count_matrix_ops(*net), 8);  // 6 convs + 2 fc
}

TEST(Models, LeNetTrainsOnToyTask) {
  nn::Rng rng(4);
  auto net = make_lenet({}, rng);
  // Two-class toy: class = bright vs dark image.
  nn::Tensor images({20, 1, 28, 28});
  std::vector<int> labels;
  for (std::int64_t i = 0; i < 20; ++i) {
    const int cls = static_cast<int>(i % 2);
    labels.push_back(cls);
    for (std::int64_t j = 0; j < 28 * 28; ++j) {
      images[i * 28 * 28 + j] = cls ? 0.9f : 0.1f;
    }
  }
  nn::DataView view{&images, &labels};
  nn::SGD opt(net->params(), 0.01f);
  float first = 0.0f, last = 0.0f;
  for (int e = 0; e < 15; ++e) {
    const auto st = nn::train_epoch(*net, opt, view, 10, rng);
    if (e == 0) first = st.loss;
    last = st.loss;
  }
  EXPECT_LT(last, first);
  EXPECT_GT(nn::evaluate(*net, view, 10).accuracy, 0.9f);
}

TEST(Models, ResNetGradientsFlowToStem) {
  nn::Rng rng(5);
  ResNetConfig cfg;
  cfg.base_channels = 4;
  auto net = make_resnet(cfg, rng);
  nn::Tensor images = random_images(4, 3, 32, 6);
  std::vector<int> labels{0, 1, 2, 3};
  nn::DataView view{&images, &labels};
  accumulate_mean_gradients(*net, view, 4);
  // The first crossbar layer (stem conv) must receive gradient.
  double g = 0.0;
  for (const float v : nn::matrix_ops(*net).front()->weight_grads()) {
    g += std::abs(v);
  }
  EXPECT_GT(g, 0.0);
}

TEST(Models, CustomImageSizeLeNet) {
  nn::Rng rng(6);
  LeNetConfig cfg;
  cfg.image_size = 12;
  auto net = make_lenet(cfg, rng);
  nn::Tensor y = net->forward(random_images(1, 1, 12, 7), false);
  EXPECT_EQ(y.dim(1), 10);
}
