// Full-stack integration tests: the paper's headline compositions, with
// the failure detectors implemented by real message-passing algorithms
// rather than oracles.
//
//  - Fig. 6 ▸ Corollary 2 ▸ Fig. 8 in HPS with a majority of correct
//    processes ("consensus with partial synchrony in homonymous systems").
//    Note: pre-GST message *loss* is disabled here. Fig. 8 is an HAS
//    algorithm — reliable links — and never retransmits its phase messages
//    (retransmission could not be deduplicated: PH1/PH2 carry no sender
//    identity by design). The composition therefore requires the lossless
//    reading of "eventually timely": arbitrary finite pre-GST delays.
//    EXPERIMENTS.md discusses this reproduction finding.
//  - Fig. 6 + the Fig. 7 adapter ▸ Fig. 9 under synchrony, any number of
//    crashes, no knowledge of n, t or membership.
//  - AP ▸ Lemmas 2+3 ▸ Observation 1 ▸ Fig. 9 in an anonymous synchronous
//    system (the paper's relaxation for anonymous consensus).
#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "support/valid_params.h"

namespace hds {
namespace {

TEST(FullStackFig8, PartialSynchronyMajorityCorrect) {
  Fig8FullStackParams p;
  p.ids = ids_homonymous(5, 2, 7);
  p.t_known = 2;
  p.crashes = crashes_last_k(5, 2, 60, 13);
  p.net = {.gst = 100, .delta = 3, .pre_gst_loss = 0.0, .pre_gst_max_delay = 40};
  p.seed = 2;
  auto r = run_fig8_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(FullStackFig8, ImmediateSynchronyDecidesFast) {
  Fig8FullStackParams p;
  p.ids = ids_unique(4);
  p.t_known = 1;
  p.net = {.gst = 0, .delta = 2, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1};
  auto r = run_fig8_full_stack(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_LT(r.last_decision_time, 1500);
}

struct Fig8StackSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(Fig8StackSweep, ConsensusUnderHPS) {
  auto [n, distinct, crash_k, seed] = GetParam();
  Fig8FullStackParams p;
  p.ids = ids_homonymous(n, distinct, seed + 3);
  p.t_known = crash_k;
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 50, 17);
  p.net = {.gst = 90, .delta = 3, .pre_gst_loss = 0.0, .pre_gst_max_delay = 30};
  p.seed = seed;
  auto r = run_fig8_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fig8StackSweep,
                         ::testing::ValuesIn(valid_tuples<Fig8StackSweep::ParamType>(
                             [](std::size_t n, std::size_t distinct, std::size_t crash_k, auto...) {
                               return distinct <= n && 2 * crash_k < n;
                             },
                             {3, 5}, {1, 2, 5}, {0, 2}, {1, 2})));

TEST(FullStackFig9, SynchronousAnyNumberOfCrashes) {
  Fig9FullStackParams p;
  p.ids = ids_homonymous(5, 2, 7);
  p.crashes = crashes_last_k(5, 3, 37, 11);
  p.delta = 3;
  p.seed = 8;
  auto r = run_fig9_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(FullStackFig9, SingleSurvivorStillDecides) {
  Fig9FullStackParams p;
  p.ids = ids_homonymous(4, 2, 5);
  p.crashes = crashes_last_k(4, 3, 25, 9);
  p.delta = 2;
  p.seed = 3;
  auto r = run_fig9_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(FullStackFig9Anonymous, ApDerivedDetectorsCarryConsensus) {
  Fig9FullStackParams p;
  p.ids = ids_anonymous(6);
  p.crashes = crashes_last_k(6, 4, 29, 7);
  p.delta = 2;
  p.seed = 13;
  p.anonymous_ap_stack = true;
  auto r = run_fig9_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

struct Fig9StackSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool, std::uint64_t>> {};

TEST_P(Fig9StackSweep, ConsensusUnderSynchrony) {
  auto [n, crash_k, anonymous, seed] = GetParam();
  Fig9FullStackParams p;
  p.ids = anonymous ? ids_anonymous(n) : ids_homonymous(n, (n + 1) / 2, seed + 1);
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 31, 13);
  p.delta = 2;
  p.seed = seed;
  p.anonymous_ap_stack = anonymous;
  auto r = run_fig9_full_stack(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, Fig9StackSweep,
                         ::testing::ValuesIn(valid_tuples<Fig9StackSweep::ParamType>(
                             [](std::size_t n, std::size_t crash_k, auto...) { return crash_k < n; },
                             {3, 5}, {0, 2, 4}, {false, true}, {1, 2})));

}  // namespace
}  // namespace hds
