// Tests for the footnote-5 alpha variant and the ablation switches — the
// executable form of "why is this piece of the algorithm there?".
#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "support/valid_params.h"

namespace hds {
namespace {

// ------------------------------------------------ footnote 5: alpha mode

TEST(AlphaVariant, DecidesWithoutKnowingN) {
  Fig8OracleParams p;
  p.ids = ids_homonymous(7, 3, 5);
  p.alpha = 4;  // alpha > n/2; at least alpha correct below
  p.crashes = crashes_last_k(7, 3, 25, 9);
  p.fd_stabilize = 60;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

struct AlphaSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(AlphaSweep, FootnoteFiveHolds) {
  auto [n, crash_k, seed] = GetParam();
  const std::size_t alpha = n / 2 + 1;
  Fig8OracleParams p;
  p.ids = ids_homonymous(n, (n + 1) / 2, seed + 1);
  p.alpha = alpha;
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 20, 7);
  p.fd_stabilize = 70;
  p.seed = seed;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

// alpha = n/2 + 1 correct processes are required.
INSTANTIATE_TEST_SUITE_P(Sweep, AlphaSweep,
                         ::testing::ValuesIn(valid_tuples<AlphaSweep::ParamType>(
                             [](std::size_t n, std::size_t crash_k, auto...) {
                               return n - crash_k >= n / 2 + 1;
                             },
                             {4, 6, 9}, {0, 1, 2}, {1, 2})));

// ----------------------------------- ablation: Leaders' Coordination Phase

TEST(CoordinationAblation, SafetyStillHoldsWithoutThePhase) {
  // Dropping the phase can cost liveness, never safety: whatever decisions
  // occur must still satisfy validity and agreement.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(6, 2, 3);  // heavy homonymy: many leaders
    p.t_known = 2;
    p.fd_stabilize = 50;
    p.skip_coordination_phase = true;
    p.seed = seed;
    p.max_time = 30'000;
    auto r = run_fig8_with_oracle(p);
    if (!r.all_correct_decided) continue;  // liveness loss is the expected risk
    EXPECT_TRUE(r.check.ok) << "seed " << seed << ": " << r.check.detail;
  }
}

TEST(CoordinationAblation, UniqueIdsNeverNeedThePhase) {
  // With unique identifiers there is one leader: removing the phase is
  // harmless (the paper's HΩ degenerates to Ω).
  Fig8OracleParams p;
  p.ids = ids_unique(5);
  p.t_known = 2;
  p.crashes = crashes_last_k(5, 2, 20);
  p.fd_stabilize = 50;
  p.skip_coordination_phase = true;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

// ------------------------------------- ablation: Fig. 6 timeout adaptation

TEST(TimeoutAblation, FrozenTimeoutFailsForLargeDelta) {
  Fig6Params p;
  p.ids = ids_unique(4);
  p.net = {.gst = 0, .delta = 12, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1};
  p.fd_opts = {.initial_timeout = 2, .adaptive_timeout = false};
  p.run_for = 2500;
  p.stable_window = 250;
  auto r = run_fig6(p);
  EXPECT_FALSE(r.ohp_check.ok);  // lines 33-34 are what make Theorem 5 work
}

TEST(TimeoutAblation, FrozenButSufficientTimeoutStillConverges) {
  Fig6Params p;
  p.ids = ids_unique(4);
  p.net = {.gst = 0, .delta = 3, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1};
  p.fd_opts = {.initial_timeout = 16, .adaptive_timeout = false};
  p.run_for = 2500;
  p.stable_window = 250;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
}

// -------------------- reproduction finding: pre-GST loss vs composition

TEST(LossyComposition, PreGstLossCanStallFig8FullStack) {
  // Fig. 8 assumes reliable links (HAS) and never retransmits its phase
  // messages; its PH1/PH2 carry no sender identity, so a retransmission
  // layer could not deduplicate without changing the algorithm. Under the
  // lossy reading of HPS (pre-GST copies may be dropped) the composition
  // with Fig. 6 therefore loses liveness: with heavy early loss, this run
  // never decides. See EXPERIMENTS.md.
  Fig8FullStackParams p;
  p.ids = ids_homonymous(5, 2, 7);
  p.t_known = 2;
  p.net = {.gst = 2000, .delta = 3, .pre_gst_loss = 0.95, .pre_gst_max_delay = 20};
  p.seed = 4;
  p.max_time = 20'000;
  auto r = run_fig8_full_stack(p);
  EXPECT_FALSE(r.all_correct_decided);
  // The detector itself, by contrast, recovers from any pre-GST loss: that
  // is Theorem 5 and is covered by the Fig. 6 sweeps.
}

}  // namespace
}  // namespace hds
