// Multi-instance consensus: several independent slots share one node and
// one network, isolated by the instance tag — the building block of the
// replicated-log example.
#include <gtest/gtest.h>

#include <memory>

#include "consensus/harness.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/oracles.h"
#include "sim/stacked_process.h"

namespace hds {
namespace {

TEST(MultiInstance, ThreeFig8SlotsDecideIndependently) {
  constexpr std::size_t kN = 5;
  constexpr int kSlots = 3;
  SystemConfig cfg;
  cfg.ids = ids_homonymous(kN, 2, 7);
  cfg.timing = std::make_unique<AsyncTiming>(1, 6);
  cfg.crashes = crashes_last_k(kN, 2, 40, 9);
  cfg.seed = 3;
  System sys(std::move(cfg));
  OracleHOmega fd(GroundTruth::from(sys), [&sys] { return sys.now(); }, 60);

  // cons[slot][proc]; slot s at proc i proposes 100*(s+1) + i.
  std::vector<std::vector<MajorityHOmegaConsensus*>> cons(kSlots,
                                                          std::vector<MajorityHOmegaConsensus*>(kN));
  for (ProcIndex i = 0; i < kN; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    for (int s = 0; s < kSlots; ++s) {
      MajorityConsensusConfig ccfg;
      ccfg.n = kN;
      ccfg.t = 2;
      ccfg.proposal = static_cast<Value>(100 * (s + 1) + static_cast<Value>(i));
      ccfg.instance = s;
      cons[s][i] = stack->add(std::make_unique<MajorityHOmegaConsensus>(ccfg, fd.handle(i)));
    }
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  sys.run_until(30'000);

  const GroundTruth gt = GroundTruth::from(sys);
  for (int s = 0; s < kSlots; ++s) {
    std::vector<Value> proposals;
    std::vector<DecisionRecord> decisions;
    for (ProcIndex i = 0; i < kN; ++i) {
      proposals.push_back(static_cast<Value>(100 * (s + 1) + static_cast<Value>(i)));
      decisions.push_back(cons[s][i]->decision());
    }
    auto res = check_consensus(gt, proposals, decisions);
    EXPECT_TRUE(res.ok) << "slot " << s << ": " << res.detail;
    // Isolation: the decided value belongs to this slot's proposal band.
    for (const auto& d : decisions) {
      if (d.decided) {
        EXPECT_GE(d.value, 100 * (s + 1));
        EXPECT_LT(d.value, 100 * (s + 2));
      }
    }
  }
}

TEST(MultiInstance, Fig9SlotsAreIsolatedToo) {
  constexpr std::size_t kN = 4;
  constexpr int kSlots = 2;
  SystemConfig cfg;
  cfg.ids = ids_homonymous(kN, 2, 5);
  cfg.timing = std::make_unique<AsyncTiming>(1, 5);
  cfg.crashes = crashes_last_k(kN, 2, 30, 7);
  cfg.seed = 9;
  System sys(std::move(cfg));
  auto clock = [&sys] { return sys.now(); };
  OracleHOmega fd1(GroundTruth::from(sys), clock, 50);
  OracleHSigma fd2(GroundTruth::from(sys), clock, 70);

  std::vector<std::vector<QuorumConsensus*>> cons(kSlots, std::vector<QuorumConsensus*>(kN));
  for (ProcIndex i = 0; i < kN; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    for (int s = 0; s < kSlots; ++s) {
      QuorumConsensusConfig ccfg;
      ccfg.proposal = static_cast<Value>(1000 * (s + 1) + static_cast<Value>(i));
      ccfg.instance = s;
      cons[s][i] = stack->add(std::make_unique<QuorumConsensus>(ccfg, fd1.handle(i), fd2.handle(i)));
    }
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  sys.run_until(30'000);

  const GroundTruth gt = GroundTruth::from(sys);
  for (int s = 0; s < kSlots; ++s) {
    std::vector<Value> proposals;
    std::vector<DecisionRecord> decisions;
    for (ProcIndex i = 0; i < kN; ++i) {
      proposals.push_back(static_cast<Value>(1000 * (s + 1) + static_cast<Value>(i)));
      decisions.push_back(cons[s][i]->decision());
    }
    auto res = check_consensus(gt, proposals, decisions);
    EXPECT_TRUE(res.ok) << "slot " << s << ": " << res.detail;
  }
}

TEST(MultiInstance, HarnessInstanceTagIsPureNamespacing) {
  // The repeated-consensus entry point: Fig8OracleParams.instance stamps the
  // slot number on every engine and message of the run. The tag must be
  // invisible to the protocol — same seed, different slot numbers, identical
  // decisions — so a replicated log can replay any single slot in isolation.
  const auto run_slot = [](std::int64_t slot) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(5, 3, 11);
    p.t_known = 2;
    p.crashes = crashes_last_k(5, 1, 50);
    p.fd_stabilize = 80;
    p.seed = 21;
    p.max_time = 60'000;
    p.instance = slot;
    return run_fig8_with_oracle(p);
  };
  const ConsensusRunResult a = run_slot(0);
  const ConsensusRunResult b = run_slot(7);
  EXPECT_TRUE(a.check.ok) << a.check.detail;
  EXPECT_TRUE(b.check.ok) << b.check.detail;
  ASSERT_TRUE(a.all_correct_decided);
  ASSERT_TRUE(b.all_correct_decided);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].decided, b.decisions[i].decided) << "proc " << i;
    if (a.decisions[i].decided && b.decisions[i].decided) {
      EXPECT_EQ(a.decisions[i].value, b.decisions[i].value) << "proc " << i;
    }
  }
  EXPECT_EQ(a.broadcasts, b.broadcasts);
}

TEST(MultiInstance, ForeignInstanceDecideIsIgnored) {
  // A DECIDE tagged for another instance must not decide this one.
  class FixedOmega final : public HOmegaHandle {
   public:
    [[nodiscard]] HOmegaOut h_omega() const override { return {9, 1}; }
  };
  FixedOmega fd;
  MajorityConsensusConfig ccfg;
  ccfg.n = 3;
  ccfg.t = 1;
  ccfg.proposal = 1;
  ccfg.instance = 2;
  MajorityHOmegaConsensus c(ccfg, fd);
  SystemConfig scfg;
  scfg.ids = {1};
  scfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(scfg));
  c.on_start(sys.env(0));
  c.on_message(sys.env(0), make_message(MsgType::kDecide, DecideMsg{42, /*instance=*/1}));
  EXPECT_FALSE(c.decision().decided);
  c.on_message(sys.env(0), make_message(MsgType::kDecide, DecideMsg{42, /*instance=*/2}));
  EXPECT_TRUE(c.decision().decided);
}

}  // namespace
}  // namespace hds
