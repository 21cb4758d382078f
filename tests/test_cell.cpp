// SLC / MLC2 cell models and the finite ON/OFF ratio.
#include <gtest/gtest.h>

#include "rram/cell.h"

using namespace rdo::rram;

TEST(CellModel, SlcBitsAndStates) {
  CellModel c{CellKind::SLC, 200.0};
  EXPECT_EQ(c.bits(), 1);
  EXPECT_EQ(c.states(), 2);
  EXPECT_EQ(c.radix(), 2);
}

TEST(CellModel, Mlc2BitsAndStates) {
  CellModel c{CellKind::MLC2, 200.0};
  EXPECT_EQ(c.bits(), 2);
  EXPECT_EQ(c.states(), 4);
  EXPECT_EQ(c.radix(), 4);
}

TEST(CellModel, IdealReadIsExactState) {
  for (CellKind kind : {CellKind::SLC, CellKind::MLC2}) {
    CellModel c{kind, 200.0};
    for (int s = 0; s < c.states(); ++s) {
      EXPECT_DOUBLE_EQ(c.read_value(s, 1.0), static_cast<double>(s));
    }
  }
}

TEST(CellModel, HrsOffsetReflectsOnOffRatio) {
  CellModel slc{CellKind::SLC, 200.0};
  // (top + c)/c = ratio  =>  c = top/(ratio-1).
  EXPECT_NEAR(slc.hrs_offset(), 1.0 / 199.0, 1e-12);
  CellModel mlc{CellKind::MLC2, 200.0};
  EXPECT_NEAR(mlc.hrs_offset(), 3.0 / 199.0, 1e-12);
}

TEST(CellModel, InfiniteRatioLimitGivesZeroLeakage) {
  CellModel c{CellKind::SLC, 1e12};
  EXPECT_NEAR(c.hrs_offset(), 0.0, 1e-10);
  // HRS read with variation stays ~0 when leakage vanishes.
  EXPECT_NEAR(c.read_value(0, 2.0), 0.0, 1e-10);
}

TEST(CellModel, HrsLeakageVisibleUnderVariation) {
  CellModel c{CellKind::SLC, 200.0};
  // state 0 with factor 2: (0 + c)*2 - c = c > 0.
  EXPECT_NEAR(c.read_value(0, 2.0), c.hrs_offset(), 1e-12);
  // factor below 1 gives a small negative excursion (under-conduction).
  EXPECT_LT(c.read_value(0, 0.5), 0.0);
}

TEST(CellModel, VariationScalesAroundState) {
  CellModel c{CellKind::MLC2, 200.0};
  const double hi = c.read_value(3, 1.2);
  const double lo = c.read_value(3, 0.8);
  EXPECT_GT(hi, 3.0);
  EXPECT_LT(lo, 3.0);
  // Symmetric factors around 1 are symmetric around the state.
  EXPECT_NEAR(hi - 3.0, 3.0 - lo, 1e-9);
}

TEST(CellModel, ReadValueRejectsBadState) {
  CellModel c{CellKind::SLC, 200.0};
  EXPECT_THROW((void)c.read_value(2, 1.0), std::invalid_argument);
  EXPECT_THROW((void)c.read_value(-1, 1.0), std::invalid_argument);
}

TEST(CellModel, ReadPowerProportionalToConductance) {
  CellModel c{CellKind::MLC2, 200.0};
  // Power strictly increases with state; HRS has small nonzero power.
  double prev = -1.0;
  for (int s = 0; s < c.states(); ++s) {
    const double p = c.read_power(s);
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_GT(c.read_power(0), 0.0);
  EXPECT_NEAR(c.read_power(3) / c.read_power(0), 200.0, 1e-9);
}

TEST(CellModel, ToString) {
  EXPECT_STREQ(to_string(CellKind::SLC), "SLC");
  EXPECT_STREQ(to_string(CellKind::MLC2), "MLC2");
}
