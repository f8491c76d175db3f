// Adversarial, phase-aware delivery schedules: the TypeBiasedTiming model
// stalls chosen message types and staggers deliveries per destination, so
// different processes observe the phases of the same round in different
// orders and at very different times. Consensus safety and termination must
// be schedule-independent.
#include <gtest/gtest.h>

#include <memory>

#include "consensus/harness.h"
#include "consensus/majority_homega.h"
#include "consensus/messages.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/oracles.h"
#include "sim/system.h"

namespace hds {
namespace {

ConsensusRunResult run_fig8_with_timing(std::unique_ptr<TimingModel> timing, std::uint64_t seed) {
  const std::size_t n = 5;
  SystemConfig cfg;
  cfg.ids = ids_homonymous(n, 2, 7);
  cfg.timing = std::move(timing);
  cfg.crashes = crashes_last_k(n, 2, 30, 11);
  cfg.seed = seed;
  System sys(std::move(cfg));
  OracleHOmega fd(GroundTruth::from(sys), [&sys] { return sys.now(); }, 50);
  const auto proposals = distinct_proposals(n);
  std::vector<MajorityHOmegaConsensus*> cons(n);
  for (ProcIndex i = 0; i < n; ++i) {
    MajorityConsensusConfig ccfg;
    ccfg.n = n;
    ccfg.t = 2;
    ccfg.proposal = proposals[i];
    auto proc = std::make_unique<MajorityHOmegaConsensus>(ccfg, fd.handle(i));
    cons[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  sys.start();
  sys.run_until(100'000);
  ConsensusRunResult res;
  res.proposals = proposals;
  for (ProcIndex i = 0; i < n; ++i) res.decisions.push_back(cons[i]->decision());
  res.check = check_consensus(GroundTruth::from(sys), proposals, res.decisions);
  return res;
}

TEST(AdversarialTiming, StalledPh2StillSafeAndLive) {
  // PH2 crawls (40 ticks) while everything else flies: Phase 2 quorums form
  // from wildly skewed snapshots.
  TypeBiasedTiming::Params p;
  p.default_delay = 1;
  p.delay_by_type = {{MsgType::kPh2, 40}};
  auto r = run_fig8_with_timing(std::make_unique<TypeBiasedTiming>(p), 1);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(AdversarialTiming, StalledDecideCannotBreakAgreement) {
  // DECIDE relays crawl: laggards must reach the same value through the
  // normal phases long before the relay arrives.
  TypeBiasedTiming::Params p;
  p.default_delay = 2;
  p.delay_by_type = {{MsgType::kDecide, 120}};
  auto r = run_fig8_with_timing(std::make_unique<TypeBiasedTiming>(p), 2);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(AdversarialTiming, PerDestinationStaggerSkewsObservationOrder) {
  // Process k receives everything k*7 ticks later than process 0: rounds
  // overlap heavily across the system.
  TypeBiasedTiming::Params p;
  p.default_delay = 1;
  p.per_destination_stagger = 7;
  auto r = run_fig8_with_timing(std::make_unique<TypeBiasedTiming>(p), 3);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(AdversarialTiming, Fig9UnderStalledPh1Q) {
  const std::size_t n = 5;
  SystemConfig cfg;
  cfg.ids = ids_homonymous(n, 2, 3);
  TypeBiasedTiming::Params tp;
  tp.default_delay = 1;
  tp.delay_by_type = {{MsgType::kPh1Q, 25}};
  tp.per_destination_stagger = 3;
  cfg.timing = std::make_unique<TypeBiasedTiming>(tp);
  cfg.crashes = crashes_last_k(n, 3, 20, 9);
  cfg.seed = 4;
  System sys(std::move(cfg));
  auto clock = [&sys] { return sys.now(); };
  OracleHOmega fd1(GroundTruth::from(sys), clock, 50);
  OracleHSigma fd2(GroundTruth::from(sys), clock, 70);
  const auto proposals = distinct_proposals(n);
  std::vector<QuorumConsensus*> cons(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto proc = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4},
                                                  fd1.handle(i), fd2.handle(i));
    cons[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  sys.start();
  sys.run_until(100'000);
  std::vector<DecisionRecord> decisions;
  for (ProcIndex i = 0; i < n; ++i) decisions.push_back(cons[i]->decision());
  auto res = check_consensus(GroundTruth::from(sys), proposals, decisions);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(AdversarialTiming, ModelValidatesParameters) {
  TypeBiasedTiming::Params zero;
  zero.default_delay = 0;
  EXPECT_THROW(TypeBiasedTiming{zero}, std::invalid_argument);
  TypeBiasedTiming::Params bad;
  bad.delay_by_type = {{MsgType::kTest0, 0}};
  EXPECT_THROW(TypeBiasedTiming{bad}, std::invalid_argument);
  TypeBiasedTiming::Params stagger_bad;
  stagger_bad.per_destination_stagger = -1;
  EXPECT_THROW(TypeBiasedTiming{stagger_bad}, std::invalid_argument);
}

TEST(AdversarialTiming, DeliverySemantics) {
  TypeBiasedTiming::Params p;
  p.default_delay = 5;
  p.delay_by_type = {{MsgType::kTest0, 50}};
  p.per_destination_stagger = 2;
  TypeBiasedTiming t(p);
  Rng rng(1);
  EXPECT_EQ(t.delivery_at(10, 0, 0, MsgType::kTest1, rng), 15);
  EXPECT_EQ(t.delivery_at(10, 0, 3, MsgType::kTest1, rng), 21);  // + 3*2 stagger
  EXPECT_EQ(t.delivery_at(10, 0, 1, MsgType::kTest0, rng), 62);
}

}  // namespace
}  // namespace hds
