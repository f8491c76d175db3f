// Tests of the heartbeat HΩ extension: election correctness across the
// homonymy spectrum under partial synchrony and asymmetric links, lag
// adaptation, and use as the detector under Fig. 8 consensus.
#include "fd/impl/homega_heartbeat.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "consensus/harness.h"
#include "consensus/majority_homega.h"
#include "sim/stacked_process.h"
#include "spec/fd_checkers.h"
#include "support/valid_params.h"

namespace hds {
namespace {

struct HbRun {
  std::unique_ptr<System> sys;
  std::vector<HOmegaHeartbeat*> fds;
};

HbRun run_hb(std::vector<Id> ids, std::vector<std::optional<CrashPlan>> crashes,
             std::unique_ptr<TimingModel> timing, std::uint64_t seed, SimTime run_for) {
  SystemConfig cfg;
  cfg.ids = std::move(ids);
  cfg.timing = std::move(timing);
  cfg.crashes = std::move(crashes);
  cfg.seed = seed;
  HbRun r;
  r.sys = std::make_unique<System>(std::move(cfg));
  for (ProcIndex i = 0; i < r.sys->n(); ++i) {
    auto fd = std::make_unique<HOmegaHeartbeat>(4);
    r.fds.push_back(fd.get());
    r.sys->set_process(i, std::move(fd));
  }
  r.sys->start();
  r.sys->run_until(run_for);
  return r;
}

CheckResult check(const HbRun& r, SimTime run_for, SimTime window) {
  std::vector<const Trajectory<HOmegaOut>*> traces;
  for (auto* fd : r.fds) traces.push_back(&fd->trace());
  return check_homega(GroundTruth::from(*r.sys), traces, run_for, window);
}

TEST(HOmegaHeartbeat, ElectsMinIdWithMultiplicityUnderPartialSynchrony) {
  auto r = run_hb({2, 2, 2, 5, 9}, crashes_last_k(5, 2, 60, 11),
                  std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
                      .gst = 100, .delta = 3, .pre_gst_loss = 0.4, .pre_gst_max_delay = 50}),
                  3, 3000);
  auto res = check(r, 3000, 300);
  EXPECT_TRUE(res.ok) << res.detail;
  // I(Correct) = {2,2,2}: leader 2 with multiplicity 3.
  EXPECT_EQ(r.fds[0]->h_omega(), (HOmegaOut{2, 3}));
}

TEST(HOmegaHeartbeat, LagAdaptsToLargeDelta) {
  auto r = run_hb(ids_unique(3), crashes_none(3),
                  std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
                      .gst = 0, .delta = 20, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1}),
                  1, 4000);
  auto res = check(r, 4000, 300);
  EXPECT_TRUE(res.ok) << res.detail;
  // delta = 20 spans several 4-tick periods: the lag must have grown.
  EXPECT_GT(r.fds[0]->lag(), 1);
}

TEST(HOmegaHeartbeat, SurvivesAsymmetricLinks) {
  auto r = run_hb(ids_homonymous(6, 3, 5), crashes_last_k(6, 2, 40, 9),
                  std::make_unique<PerLinkTiming>(1, 9, 2, /*seed=*/17), 2, 4000);
  auto res = check(r, 4000, 300);
  EXPECT_TRUE(res.ok) << res.detail;
}

struct HbSweep : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, int>> {};

TEST_P(HbSweep, ElectionHoldsAcrossTheSpectrum) {
  auto [n, distinct, crash_k, seed] = GetParam();
  auto r = run_hb(ids_homonymous(n, distinct, 7 * seed + 1), crashes_last_k(n, crash_k, 50, 13),
                  std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
                      .gst = 90, .delta = 3, .pre_gst_loss = 0.3, .pre_gst_max_delay = 30}),
                  static_cast<std::uint64_t>(seed), 4000);
  auto res = check(r, 4000, 300);
  EXPECT_TRUE(res.ok) << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HbSweep,
                         ::testing::ValuesIn(valid_tuples<HbSweep::ParamType>(
                             [](std::size_t n, std::size_t distinct, std::size_t crash_k, auto...) {
                               return distinct <= n && crash_k < n;
                             },
                             {3, 6}, {1, 2, 6}, {0, 2}, {1, 2})));

TEST(HOmegaHeartbeat, DrivesFig8Consensus) {
  // Full alternative stack: heartbeat HΩ under the Fig. 8 algorithm.
  const std::size_t n = 5;
  SystemConfig cfg;
  cfg.ids = ids_homonymous(n, 2, 7);
  cfg.timing = std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
      .gst = 80, .delta = 3, .pre_gst_loss = 0.0, .pre_gst_max_delay = 30});
  cfg.crashes = crashes_last_k(n, 2, 50, 11);
  cfg.seed = 5;
  System sys(std::move(cfg));
  std::vector<MajorityHOmegaConsensus*> cons(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<HOmegaHeartbeat>(4));
    MajorityConsensusConfig ccfg;
    ccfg.n = n;
    ccfg.t = 2;
    ccfg.proposal = static_cast<Value>(10 * (i + 1));
    cons[i] = stack->add(std::make_unique<MajorityHOmegaConsensus>(ccfg, *fd));
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  sys.run_until(30'000);
  std::vector<DecisionRecord> decisions;
  std::vector<Value> proposals;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions.push_back(cons[i]->decision());
    proposals.push_back(static_cast<Value>(10 * (i + 1)));
  }
  auto res = check_consensus(GroundTruth::from(sys), proposals, decisions);
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
}  // namespace hds
