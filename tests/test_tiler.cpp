// Matrix -> crossbar tiling.
#include <gtest/gtest.h>

#include "rram/tiler.h"

using namespace rdo::rram;

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
