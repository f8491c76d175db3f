// Protocol-level unit tests of the Fig. 8 state machine: each guard and
// transition of the pseudocode exercised message by message through a
// scripted environment and a hand-settable HΩ handle.
#include "consensus/majority_homega.h"

#include <gtest/gtest.h>

#include "support/script_env.h"

namespace hds {
namespace {

using testing::ScriptEnv;
using testing::ScriptHOmega;

constexpr Id kSelf = 3;

struct Fig8Fixture : ::testing::Test {
  Fig8Fixture() : env(kSelf) {
    cfg.n = 5;
    cfg.t = 2;
    cfg.proposal = 30;
  }

  MajorityHOmegaConsensus make() { return MajorityHOmegaConsensus(cfg, fd); }

  void deliver_coord(MajorityHOmegaConsensus& c, Id id, Round r, Value est) {
    c.on_message(env, make_message(MsgType::kCoord, CoordMsg{id, r, est}));
  }
  void deliver_ph0(MajorityHOmegaConsensus& c, Round r, Value est) {
    c.on_message(env, make_message(MsgType::kPh0, Ph0Msg{r, est}));
  }
  void deliver_ph1(MajorityHOmegaConsensus& c, Round r, Value est) {
    c.on_message(env, make_message(MsgType::kPh1, Ph1Msg{r, est}));
  }
  void deliver_ph2(MajorityHOmegaConsensus& c, Round r, MaybeValue est2) {
    c.on_message(env, make_message(MsgType::kPh2, Ph2Msg{r, est2}));
  }

  MajorityConsensusConfig cfg;
  ScriptHOmega fd;
  ScriptEnv env;
};

TEST_F(Fig8Fixture, OnStartOpensRoundOneWithCoord) {
  fd.out = {kSelf, 2};  // leader: blocks in the coordination phase
  auto c = make();
  c.on_start(env);
  ASSERT_EQ(env.count(MsgType::kCoord), 1u);
  const auto* coord = env.last_body<CoordMsg>(MsgType::kCoord);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->id, kSelf);
  EXPECT_EQ(coord->r, 1);
  EXPECT_EQ(coord->est, 30);
  EXPECT_EQ(c.current_round(), 1);
  EXPECT_EQ(env.count(MsgType::kPh0), 0u);  // still waiting for homonym COORDs
  EXPECT_FALSE(env.timers.empty());    // guard poll armed
}

TEST_F(Fig8Fixture, LeaderWaitsForExactlyMultiplicityCoords) {
  fd.out = {kSelf, 2};
  auto c = make();
  c.on_start(env);
  deliver_coord(c, kSelf, 1, 25);  // first homonym (could be our own echo)
  EXPECT_EQ(env.count(MsgType::kPh1), 0u);
  deliver_coord(c, kSelf, 1, 40);  // second: the wait of lines 10-11 opens
  // Leader passes Phase 0 directly and broadcasts PH0 + PH1 with the MIN
  // estimate among its homonyms (lines 12-14): min(25, 40) = 25.
  const auto* ph0 = env.last_body<Ph0Msg>(MsgType::kPh0);
  ASSERT_NE(ph0, nullptr);
  EXPECT_EQ(ph0->est, 25);
  const auto* ph1 = env.last_body<Ph1Msg>(MsgType::kPh1);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->est, 25);
}

TEST_F(Fig8Fixture, ForeignCoordsDoNotUnblockLeader) {
  fd.out = {kSelf, 2};
  auto c = make();
  c.on_start(env);
  deliver_coord(c, 9, 1, 1);  // different identifier
  deliver_coord(c, 9, 1, 2);
  EXPECT_EQ(env.count(MsgType::kPh0), 0u);
}

TEST_F(Fig8Fixture, NonLeaderWaitsForPh0AndAdoptsIt) {
  fd.out = {7, 1};  // someone else leads
  auto c = make();
  c.on_start(env);
  EXPECT_EQ(env.count(MsgType::kPh1), 0u);  // blocked at line 16
  deliver_ph0(c, 1, 77);
  const auto* ph1 = env.last_body<Ph1Msg>(MsgType::kPh1);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->est, 77);  // line 17: est1 <- v
}

TEST_F(Fig8Fixture, PhaseOneMajorityBecomesEst2) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  // n - t = 3 messages; value 50 from 3 > n/2 senders.
  deliver_ph1(c, 1, 50);
  deliver_ph1(c, 1, 50);
  EXPECT_EQ(env.count(MsgType::kPh2), 0u);  // only 2 so far
  deliver_ph1(c, 1, 50);
  const auto* ph2 = env.last_body<Ph2Msg>(MsgType::kPh2);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{50});
}

TEST_F(Fig8Fixture, PhaseOneSplitYieldsBottom) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  deliver_ph1(c, 1, 50);
  deliver_ph1(c, 1, 60);
  deliver_ph1(c, 1, 70);  // no value reaches > n/2 = 2.5 support
  const auto* ph2 = env.last_body<Ph2Msg>(MsgType::kPh2);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{});
}

TEST_F(Fig8Fixture, PhaseTwoUnanimousDecidesAndBroadcastsDecide) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph2(c, 1, MaybeValue{50});
  EXPECT_TRUE(c.done());
  EXPECT_TRUE(c.decision().decided);
  EXPECT_EQ(c.decision().value, 50);
  EXPECT_EQ(c.decision().round, 1);
  EXPECT_EQ(env.count(MsgType::kDecide), 1u);
}

TEST_F(Fig8Fixture, PhaseTwoMixedAdoptsValueAndEntersNextRound) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 1, static_cast<Value>(50 + 10 * k));  // -> bottom
  deliver_ph2(c, 1, MaybeValue{60});
  deliver_ph2(c, 1, MaybeValue{});
  deliver_ph2(c, 1, MaybeValue{});
  EXPECT_FALSE(c.done());
  EXPECT_EQ(c.current_round(), 2);
  // Line 33 adopted 60: the round-2 COORD must carry it.
  const auto* coord = env.last_body<CoordMsg>(MsgType::kCoord);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->r, 2);
  EXPECT_EQ(coord->est, 60);
}

TEST_F(Fig8Fixture, PhaseTwoAllBottomKeepsEstimate) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 1, static_cast<Value>(50 + 10 * k));
  for (int k = 0; k < 3; ++k) deliver_ph2(c, 1, MaybeValue{});
  EXPECT_EQ(c.current_round(), 2);
  const auto* coord = env.last_body<CoordMsg>(MsgType::kCoord);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->est, 50);  // line 34: skip
}

TEST_F(Fig8Fixture, DecideMessageShortCircuitsEverything) {
  fd.out = {kSelf, 5};  // absurd multiplicity: would block forever
  auto c = make();
  c.on_start(env);
  c.on_message(env, make_message(MsgType::kDecide, DecideMsg{99}));
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.decision().value, 99);
  EXPECT_EQ(env.count(MsgType::kDecide), 1u);  // relayed exactly once
  c.on_message(env, make_message(MsgType::kDecide, DecideMsg{99}));
  EXPECT_EQ(env.count(MsgType::kDecide), 1u);  // not re-relayed
}

TEST_F(Fig8Fixture, FutureRoundMessagesAreBufferedNotLost) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  // Round-2 traffic arrives while we are still in round 1.
  deliver_ph0(c, 2, 88);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 2, 88);
  EXPECT_EQ(c.current_round(), 1);
  // Finish round 1 with all-bottom Phase 2.
  deliver_ph0(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 1, static_cast<Value>(50 + 10 * k));
  for (int k = 0; k < 3; ++k) deliver_ph2(c, 1, MaybeValue{});
  // Round 2 opens and the buffered PH0/PH1 immediately carry it through
  // Phase 1: a PH2 for round 2 must already be out, with the buffered 88.
  EXPECT_EQ(c.current_round(), 2);
  const auto* ph2 = env.last_body<Ph2Msg>(MsgType::kPh2);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->r, 2);
  EXPECT_EQ(ph2->est2, MaybeValue{88});
}

TEST_F(Fig8Fixture, StaleRoundMessagesAreIgnored) {
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  for (int k = 0; k < 3; ++k) deliver_ph1(c, 1, static_cast<Value>(50 + 10 * k));
  for (int k = 0; k < 3; ++k) deliver_ph2(c, 1, MaybeValue{});
  ASSERT_EQ(c.current_round(), 2);
  env.clear();
  // Late round-1 traffic must not produce any new broadcast.
  deliver_ph1(c, 1, 50);
  deliver_ph2(c, 1, MaybeValue{50});
  EXPECT_TRUE(env.sent.empty());
}

TEST_F(Fig8Fixture, GuardPollTimerReevaluatesFdGates) {
  fd.out = {7, 1};  // not leader, no PH0 yet: blocked
  auto c = make();
  c.on_start(env);
  EXPECT_EQ(env.count(MsgType::kPh1), 0u);
  fd.out = {kSelf, 1};  // the detector now names us leader
  c.on_timer(env, env.timers.front().id);
  EXPECT_EQ(env.count(MsgType::kPh1), 1u);  // unblocked with no message arriving
}

TEST_F(Fig8Fixture, AlphaModeUsesAlphaThresholds) {
  cfg.n = 0;  // unknown in footnote-5 mode
  cfg.t = 0;
  cfg.alpha = 2;
  fd.out = {7, 1};
  auto c = make();
  c.on_start(env);
  deliver_ph0(c, 1, 50);
  deliver_ph1(c, 1, 50);
  EXPECT_EQ(env.count(MsgType::kPh2), 0u);
  deliver_ph1(c, 1, 50);  // alpha = 2 reached, and 2 supporters >= alpha
  const auto* ph2 = env.last_body<Ph2Msg>(MsgType::kPh2);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{50});
  deliver_ph2(c, 1, MaybeValue{50});
  deliver_ph2(c, 1, MaybeValue{50});
  EXPECT_TRUE(c.done());
}

TEST_F(Fig8Fixture, SkipCoordinationAblationGoesStraightToPhaseZero) {
  cfg.skip_coordination_phase = true;
  fd.out = {kSelf, 99};  // would block forever in the coordination phase
  auto c = make();
  c.on_start(env);
  EXPECT_EQ(env.count(MsgType::kPh1), 1u);  // leader reached Phase 0 and moved on
}

}  // namespace
}  // namespace hds
