// Protocol-level unit tests of the Fig. 9 state machine: quorum scanning
// with homonym multiplicities, sub-round bumping, the PH2 short-circuit,
// the COORD(r+1) release, and the AAS[AΩ, HΣ] variant.
#include "consensus/quorum_homega_hsigma.h"

#include <gtest/gtest.h>

#include "support/script_env.h"

namespace hds {
namespace {

using testing::ScriptAOmega;
using testing::ScriptEnv;
using testing::ScriptHOmega;
using testing::ScriptHSigma;

constexpr Id kSelf = 1;
const Label kLx = Label::of_text("x");
const Label kLy = Label::of_text("y");

struct Fig9Fixture : ::testing::Test {
  Fig9Fixture() : env(kSelf) {
    cfg.proposal = 30;
    fd1.out = {7, 1};  // someone else leads: the fixture usually drives PH0
    // One quorum (x, {1, 2}); self carries x.
    fd2.snap.labels = {kLx};
    fd2.snap.quora.emplace(kLx, Multiset<Id>{1, 2});
  }

  QuorumConsensus make() { return QuorumConsensus(cfg, fd1, fd2); }

  // Brings a fresh machine to Phase 1 of round 1 with est1 = `est`.
  void to_phase1(QuorumConsensus& c, Value est) {
    c.on_start(env);
    c.on_message(env, make_message(MsgType::kPh0, Ph0Msg{1, est}));
    ASSERT_EQ(env.count(MsgType::kPh1Q), 1u);
  }

  void deliver_ph1q(QuorumConsensus& c, Id id, Round r, std::int64_t sr, std::set<Label> labels,
                    Value est) {
    c.on_message(env, make_message(MsgType::kPh1Q, Ph1QMsg{id, r, sr, std::move(labels), est}));
  }
  void deliver_ph2q(QuorumConsensus& c, Id id, Round r, std::int64_t sr, std::set<Label> labels,
                    MaybeValue est2) {
    c.on_message(env, make_message(MsgType::kPh2Q, Ph2QMsg{id, r, sr, std::move(labels), est2}));
  }

  QuorumConsensusConfig cfg;
  ScriptHOmega fd1;
  ScriptHSigma fd2;
  ScriptEnv env;
};

TEST_F(Fig9Fixture, Ph1QCarriesCurrentLabels) {
  auto c = make();
  to_phase1(c, 42);
  const auto* ph1 = env.last_body<Ph1QMsg>(MsgType::kPh1Q);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->id, kSelf);
  EXPECT_EQ(ph1->r, 1);
  EXPECT_EQ(ph1->sr, 1);
  EXPECT_EQ(ph1->labels, (std::set<Label>{kLx}));
  EXPECT_EQ(ph1->est, 42);
}

TEST_F(Fig9Fixture, QuorumNeedsExactSenderMultiset) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  EXPECT_EQ(env.count(MsgType::kPh2Q), 0u);  // {1} != {1,2}
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  const auto* ph2 = env.last_body<Ph2QMsg>(MsgType::kPh2Q);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{42});  // unanimous quorum
}

TEST_F(Fig9Fixture, HomonymMultiplicityIsRespected) {
  // Quorum {1, 1}: two distinct messages from identifier 1 are required.
  fd2.snap.quora.clear();
  fd2.snap.quora.emplace(kLx, Multiset<Id>{1, 1});
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);  // only one instance so far (our own)
  EXPECT_EQ(env.count(MsgType::kPh2Q), 0u);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);  // the homonym's copy
  EXPECT_EQ(env.count(MsgType::kPh2Q), 1u);
}

TEST_F(Fig9Fixture, MessagesWithoutTheLabelDoNotCount) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLy}, 42);  // carries the wrong label
  deliver_ph1q(c, 2, 1, 1, {kLy}, 42);
  EXPECT_EQ(env.count(MsgType::kPh2Q), 0u);
}

TEST_F(Fig9Fixture, MixedEstimatesInQuorumYieldBottom) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  const auto* ph2 = env.last_body<Ph2QMsg>(MsgType::kPh2Q);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{});
}

TEST_F(Fig9Fixture, QuorumMembersMustShareOneSubRound) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 2, {kLx}, 42);  // different sub-round: no quorum...
  // ...but observing sr=2 bumps us to sr=2 and rebroadcasts (lines 32-36).
  const auto* ph1 = env.last_body<Ph1QMsg>(MsgType::kPh1Q);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->sr, 2);
  EXPECT_EQ(env.count(MsgType::kPh2Q), 0u);
  // A matching sr=2 message from id 1 completes the sr=2 quorum.
  deliver_ph1q(c, 1, 1, 2, {kLx}, 42);
  EXPECT_EQ(env.count(MsgType::kPh2Q), 1u);
}

TEST_F(Fig9Fixture, LabelChangeBumpsSubRoundOnPoll) {
  auto c = make();
  to_phase1(c, 42);
  fd2.snap.labels.insert(kLy);  // detector output changes silently
  c.on_timer(env, env.timers.front().id);
  const auto* ph1 = env.last_body<Ph1QMsg>(MsgType::kPh1Q);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->sr, 2);
  EXPECT_TRUE(ph1->labels.contains(kLy));
}

TEST_F(Fig9Fixture, Ph2ShortCircuitsPhase1) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{55});
  // Lines 23-24: adopt est2 = 55 and enter Phase 2 directly.
  const auto* ph2 = env.last_body<Ph2QMsg>(MsgType::kPh2Q);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->id, kSelf);
  EXPECT_EQ(ph2->est2, MaybeValue{55});
}

TEST_F(Fig9Fixture, Ph2QuorumUnanimousDecides) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{42});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{42});
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.decision().value, 42);
  EXPECT_EQ(env.count(MsgType::kDecide), 1u);
}

TEST_F(Fig9Fixture, Ph2MixedAdoptsAndAdvances) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);  // est2 = bottom for us
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  EXPECT_FALSE(c.done());
  EXPECT_EQ(c.current_round(), 2);
  const auto* coord = env.last_body<CoordMsg>(MsgType::kCoord);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->r, 2);
  EXPECT_EQ(coord->est, 77);  // line 52 adopted the non-bottom value
}

TEST_F(Fig9Fixture, CoordOfNextRoundReleasesPhase2) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  ASSERT_EQ(env.count(MsgType::kPh2Q), 1u);
  // No PH2 quorum ever forms; someone already opened round 2 (lines 43-44).
  c.on_message(env, make_message(MsgType::kCoord, CoordMsg{9, 2, 5}));
  EXPECT_EQ(c.current_round(), 2);
}

TEST_F(Fig9Fixture, AnonymousVariantUsesALeader) {
  ScriptAOmega aomega;
  QuorumConsensus c(cfg, aomega, fd2);
  c.on_start(env);
  // Not a leader and no PH0: parked in Phase 0 (no coordination wait).
  EXPECT_EQ(env.count(MsgType::kPh1Q), 0u);
  aomega.leader = true;
  c.on_timer(env, env.timers.front().id);
  EXPECT_EQ(env.count(MsgType::kPh0), 1u);
  EXPECT_EQ(env.count(MsgType::kPh1Q), 1u);
}

TEST_F(Fig9Fixture, EmptyQuorumInDetectorIsIgnored) {
  fd2.snap.quora.emplace(kLy, Multiset<Id>{});  // a broken pair
  auto c = make();
  to_phase1(c, 42);
  // The empty multiset must not instantly satisfy the scan.
  EXPECT_EQ(env.count(MsgType::kPh2Q), 0u);
}

TEST_F(Fig9Fixture, StaleRoundTrafficIsInert) {
  auto c = make();
  to_phase1(c, 42);
  // Finish round 1 with a mixed PH2 quorum: advance to round 2.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  ASSERT_EQ(c.current_round(), 2);
  env.clear();
  // Late round-1 traffic must cause no broadcast and no state change.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{42});
  EXPECT_TRUE(env.sent.empty());
  EXPECT_EQ(c.current_round(), 2);
  EXPECT_FALSE(c.done());
}

TEST_F(Fig9Fixture, FutureRoundQuorumTrafficIsBuffered) {
  auto c = make();
  to_phase1(c, 42);
  // Round-2 PH1Q messages arrive early.
  deliver_ph1q(c, 1, 2, 1, {kLx}, 9);
  deliver_ph1q(c, 2, 2, 1, {kLx}, 9);
  EXPECT_EQ(c.current_round(), 1);
  // Close round 1 (mixed -> next round); buffered round-2 traffic plus our
  // own PH1Q should drive Phase 1 of round 2 the moment PH0 unblocks it.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  ASSERT_EQ(c.current_round(), 2);
  c.on_message(env, make_message(MsgType::kPh0, Ph0Msg{2, 9}));  // round-2 leader value
  // The buffered {1,2} quorum at sub-round 1 carries est 9 unanimously: we
  // must already have broadcast a PH2Q with est2 = 9 for round 2.
  const auto* ph2 = env.last_body<Ph2QMsg>(MsgType::kPh2Q);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->r, 2);
  EXPECT_EQ(ph2->est2, MaybeValue{9});
}

TEST_F(Fig9Fixture, DecideRelayedExactlyOnce) {
  auto c = make();
  c.on_start(env);
  c.on_message(env, make_message(MsgType::kDecide, DecideMsg{5}));
  c.on_message(env, make_message(MsgType::kDecide, DecideMsg{5}));
  EXPECT_EQ(env.count(MsgType::kDecide), 1u);
  EXPECT_TRUE(c.decision().decided);
}

}  // namespace
}  // namespace hds
