// Unit tests for the link timing models (the synchrony axioms).
#include "sim/timing.h"

#include <gtest/gtest.h>

namespace hds {
namespace {

TEST(AsyncTiming, DeliversWithinConfiguredRangeNeverLoses) {
  AsyncTiming t(2, 9);
  Rng rng(1);
  for (int k = 0; k < 2000; ++k) {
    auto when = t.delivery_at(100, 0, 1, MsgType::kNone, rng);
    ASSERT_TRUE(when.has_value());
    EXPECT_GE(*when, 102);
    EXPECT_LE(*when, 109);
  }
}

TEST(AsyncTiming, RejectsBadRanges) {
  EXPECT_THROW(AsyncTiming(0, 5), std::invalid_argument);
  EXPECT_THROW(AsyncTiming(5, 4), std::invalid_argument);
}

TEST(PartialSyncTiming, PostGstWithinDelta) {
  PartialSyncTiming t({.gst = 50, .delta = 4, .pre_gst_loss = 1.0, .pre_gst_max_delay = 100});
  Rng rng(1);
  for (int k = 0; k < 2000; ++k) {
    auto when = t.delivery_at(50, 0, 1, MsgType::kNone, rng);  // sent exactly at GST counts as post
    ASSERT_TRUE(when.has_value());
    EXPECT_GE(*when, 51);
    EXPECT_LE(*when, 54);
  }
}

TEST(PartialSyncTiming, PreGstCanLose) {
  PartialSyncTiming t({.gst = 50, .delta = 4, .pre_gst_loss = 0.5, .pre_gst_max_delay = 10});
  Rng rng(1);
  int lost = 0;
  for (int k = 0; k < 2000; ++k) {
    if (!t.delivery_at(10, 0, 1, MsgType::kNone, rng)) ++lost;
  }
  EXPECT_NEAR(lost, 1000, 120);
}

TEST(PartialSyncTiming, PreGstSurvivorsAreFinitelyDelayed) {
  PartialSyncTiming t({.gst = 50, .delta = 1, .pre_gst_loss = 0.0, .pre_gst_max_delay = 30});
  Rng rng(1);
  for (int k = 0; k < 2000; ++k) {
    auto when = t.delivery_at(10, 0, 1, MsgType::kNone, rng);
    ASSERT_TRUE(when.has_value());
    EXPECT_GE(*when, 11);
    EXPECT_LE(*when, 40);  // may land after GST — allowed by the model
  }
}

TEST(PartialSyncTiming, NoLossAfterGstEvenWithFullPreLoss) {
  PartialSyncTiming t({.gst = 0, .delta = 3, .pre_gst_loss = 1.0, .pre_gst_max_delay = 1});
  Rng rng(1);
  for (int k = 0; k < 500; ++k) {
    EXPECT_TRUE(t.delivery_at(k, 0, 1, MsgType::kNone, rng).has_value());
  }
}

TEST(PartialSyncTiming, ValidatesParameters) {
  EXPECT_THROW(PartialSyncTiming({.gst = 0, .delta = 0}), std::invalid_argument);
  EXPECT_THROW(PartialSyncTiming({.gst = -1, .delta = 1}), std::invalid_argument);
  EXPECT_THROW(PartialSyncTiming({.gst = 0, .delta = 1, .pre_gst_loss = 1.5}),
               std::invalid_argument);
}

TEST(BoundedTiming, AlwaysWithinKnownBound) {
  BoundedTiming t(5);
  Rng rng(3);
  for (int k = 0; k < 2000; ++k) {
    auto when = t.delivery_at(7, 0, 1, MsgType::kNone, rng);
    ASSERT_TRUE(when.has_value());
    EXPECT_GE(*when, 8);
    EXPECT_LE(*when, 12);
  }
}

TEST(BoundedTiming, RejectsNonPositiveBound) { EXPECT_THROW(BoundedTiming(0), std::invalid_argument); }

TEST(PerLinkTiming, BaseDelayIsDeterministicPerDirectedLink) {
  PerLinkTiming t(2, 9, 0, 42);
  EXPECT_EQ(t.base_delay(0, 1), t.base_delay(0, 1));
  PerLinkTiming same(2, 9, 0, 42);
  EXPECT_EQ(t.base_delay(3, 4), same.base_delay(3, 4));
  // Directions are independent links.
  bool any_asymmetric = false;
  for (ProcIndex a = 0; a < 6; ++a) {
    for (ProcIndex b = 0; b < 6; ++b) {
      if (t.base_delay(a, b) != t.base_delay(b, a)) any_asymmetric = true;
      EXPECT_GE(t.base_delay(a, b), 2);
      EXPECT_LE(t.base_delay(a, b), 9);
    }
  }
  EXPECT_TRUE(any_asymmetric);
}

TEST(PerLinkTiming, DeliveryWithinBasePlusJitterNeverLost) {
  PerLinkTiming t(1, 5, 3, 7);
  Rng rng(1);
  for (int k = 0; k < 1000; ++k) {
    auto when = t.delivery_at(50, 2, 3, MsgType::kNone, rng);
    ASSERT_TRUE(when.has_value());
    EXPECT_GE(*when, 50 + t.base_delay(2, 3));
    EXPECT_LE(*when, 50 + t.base_delay(2, 3) + 3);
  }
}

TEST(PerLinkTiming, ValidatesParameters) {
  EXPECT_THROW(PerLinkTiming(0, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(PerLinkTiming(5, 4, 0, 1), std::invalid_argument);
  EXPECT_THROW(PerLinkTiming(1, 5, -1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace hds
