// Matrix -> crossbar tiling and cell-state expansion.
#include <gtest/gtest.h>

#include "nn/dense.h"
#include "quant/quantizer.h"
#include "rram/tiler.h"

using namespace rdo::rram;
using rdo::nn::Dense;
using rdo::nn::Rng;

TEST(Tiler, ExactFit) {
  // 128 rows x 32 weight cols, 4 cells/weight on 128x128 -> 1 crossbar.
  const TilingInfo t = compute_tiling(128, 32, 128, 128, 4);
  EXPECT_EQ(t.row_tiles, 1);
  EXPECT_EQ(t.col_tiles, 1);
  EXPECT_EQ(t.total_crossbars(), 1);
}

TEST(Tiler, RowOverflowAddsTile) {
  const TilingInfo t = compute_tiling(129, 32, 128, 128, 4);
  EXPECT_EQ(t.row_tiles, 2);
  EXPECT_EQ(t.total_crossbars(), 2);
}

TEST(Tiler, ColOverflowAddsTile) {
  const TilingInfo t = compute_tiling(128, 33, 128, 128, 4);
  EXPECT_EQ(t.col_tiles, 2);
}

TEST(Tiler, MoreCellsPerWeightNeedsMoreCrossbars) {
  // The Table III accounting: crossbar count scales with devices/weight.
  const TilingInfo ours = compute_tiling(512, 512, 128, 128, 4);   // MLC2 x4
  const TilingInfo slc8 = compute_tiling(512, 512, 128, 128, 8);   // SLC x8
  const TilingInfo pm10 = compute_tiling(512, 512, 128, 128, 10);  // PM x10
  EXPECT_EQ(slc8.total_crossbars(), 2 * ours.total_crossbars());
  EXPECT_GT(pm10.total_crossbars(), slc8.total_crossbars());
}

TEST(Tiler, RejectsBadGeometry) {
  EXPECT_THROW(compute_tiling(10, 10, 128, 128, 0), std::invalid_argument);
  EXPECT_THROW(compute_tiling(10, 10, 128, 2, 4), std::invalid_argument);
}

TEST(Tiler, TileStatesLayout) {
  // 2x3 matrix of known weights, MLC2 (4 cells each), tiny 4x16 crossbar.
  Rng rng(1);
  Dense d(2, 3, rng);
  d.set_weight_at(0, 0, 0.0f);
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = 2;
  lq.cols = 3;
  lq.q = {0x1B, 0x00, 0xFF, 0x40, 0x05, 0x80};
  WeightProgrammer prog({CellKind::MLC2, 200.0}, 8, {0.0, 0.0});
  CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 16;
  const auto states = tile_states(lq.q, lq.rows, lq.cols, prog, cfg, 0, 0);
  ASSERT_EQ(states.size(), 64u);
  // Weight (0,0) = 0x1B = 00 01 10 11 -> cells LSB-first 3,2,1,0.
  EXPECT_EQ(states[0], 3);
  EXPECT_EQ(states[1], 2);
  EXPECT_EQ(states[2], 1);
  EXPECT_EQ(states[3], 0);
  // Weight (0,2) = 0xFF -> all cells 3, at columns 8..11.
  EXPECT_EQ(states[8], 3);
  EXPECT_EQ(states[11], 3);
  // Weight (1,1) = 0x05 -> cells 1,1,0,0 at row 1, columns 4..7.
  EXPECT_EQ(states[16 + 4], 1);
  EXPECT_EQ(states[16 + 5], 1);
  EXPECT_EQ(states[16 + 6], 0);
  // Rows beyond the matrix stay in HRS.
  EXPECT_EQ(states[2 * 16 + 0], 0);
  EXPECT_EQ(states[3 * 16 + 15], 0);
}

TEST(Tiler, TileStatesSecondRowTile) {
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = 5;
  lq.cols = 1;
  lq.q = {1, 2, 3, 4, 0xF0};
  WeightProgrammer prog({CellKind::MLC2, 200.0}, 8, {0.0, 0.0});
  CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  const auto states = tile_states(lq.q, lq.rows, lq.cols, prog, cfg, 1, 0);
  // Only matrix row 4 (= 0xF0 -> cells 0,0,3,3) lands in this tile.
  EXPECT_EQ(states[0], 0);
  EXPECT_EQ(states[2], 3);
  EXPECT_EQ(states[3], 3);
  EXPECT_EQ(states[4], 0);  // rest empty
}
