// Protocol-level unit tests of the failure-detector implementations: each
// line-level behaviour of Figs. 2, 4 and 6 (and the heartbeat extension)
// driven message by message through the scripted environment.
#include <gtest/gtest.h>

#include "fd/impl/alive_ranker.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/ohp_polling.h"
#include "fd/reduce/hsigma_to_sigma.h"
#include "fd/reduce/sigma_to_hsigma.h"
#include "support/script_env.h"

namespace hds {
namespace {

using testing::ScriptEnv;
using testing::ScriptHSigma;

// ----------------------------------------------------------- Fig. 6 units

struct OhpFixture : ::testing::Test {
  OhpFixture() : env(3) {}
  void start(OHPPolling& fd) { fd.on_start(env); }
  void poll(OHPPolling& fd, Round r, Id id) {
    fd.on_message(env, make_message(MsgType::kPolling, PollingMsg{r, id}));
  }
  void reply(OHPPolling& fd, Round lo, Round hi, Id to, Id from) {
    fd.on_message(env, make_message(MsgType::kPollReply, PollReplyMsg{lo, hi, to, from}));
  }
  void tick(OHPPolling& fd) { fd.on_timer(env, env.timers.back().id); }
  ScriptEnv env;
};

TEST_F(OhpFixture, StartBroadcastsRoundOnePoll) {
  OHPPolling fd;
  start(fd);
  const auto* p = env.last_body<PollingMsg>(MsgType::kPolling);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->r, 1);
  EXPECT_EQ(p->id, 3u);
  EXPECT_EQ(env.timers.back().delay, 1);  // initial timeout
}

TEST_F(OhpFixture, RoundEndCollectsCoveringReplies) {
  OHPPolling fd;
  start(fd);
  reply(fd, 1, 1, 3, 7);   // covers round 1
  reply(fd, 1, 1, 3, 7);   // a homonym of 7: second instance
  reply(fd, 1, 1, 3, 9);
  reply(fd, 2, 5, 3, 11);  // future rounds only: must NOT count for round 1
  tick(fd);
  EXPECT_EQ(fd.h_trusted(), (Multiset<Id>{7, 7, 9}));
  EXPECT_EQ(fd.h_omega(), (HOmegaOut{7, 2}));  // Corollary 2
  EXPECT_EQ(fd.round(), 2);
}

TEST_F(OhpFixture, RangeRepliesKeepCountingAcrossRounds) {
  OHPPolling fd;
  start(fd);
  reply(fd, 1, 4, 3, 7);  // one reply covering rounds 1..4
  tick(fd);
  tick(fd);
  tick(fd);
  EXPECT_EQ(fd.round(), 4);                      // rounds 1-3 evaluated
  EXPECT_EQ(fd.h_trusted(), (Multiset<Id>{7}));
  tick(fd);                                       // evaluates round 4: last covered
  EXPECT_EQ(fd.h_trusted(), (Multiset<Id>{7}));
  tick(fd);                                       // round 5: range exhausted
  EXPECT_TRUE(fd.h_trusted().empty());
}

TEST_F(OhpFixture, RepliesAddressedToOtherIdentifiersIgnored) {
  OHPPolling fd;
  start(fd);
  reply(fd, 1, 9, /*to=*/8, /*from=*/7);
  tick(fd);
  EXPECT_TRUE(fd.h_trusted().empty());
}

TEST_F(OhpFixture, StaleReplyGrowsTimeout) {
  OHPPolling fd;
  start(fd);
  tick(fd);  // round 1 -> 2
  EXPECT_EQ(fd.timeout(), 1);
  reply(fd, 1, 1, 3, 7);  // lo=1 < current round 2: lines 33-34
  EXPECT_EQ(fd.timeout(), 2);
  reply(fd, 2, 2, 3, 7);  // current: no growth
  EXPECT_EQ(fd.timeout(), 2);
}

TEST_F(OhpFixture, AnswersPollsWithUnservedRangeOnly) {
  OHPPolling fd;
  start(fd);
  poll(fd, 3, 9);
  const auto* r1 = env.last_body<PollReplyMsg>(MsgType::kPollReply);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->lo, 1);
  EXPECT_EQ(r1->hi, 3);
  EXPECT_EQ(r1->to_id, 9u);
  EXPECT_EQ(r1->from_id, 3u);
  const auto before = env.count(MsgType::kPollReply);
  poll(fd, 2, 9);  // already served up to 3: no new reply
  EXPECT_EQ(env.count(MsgType::kPollReply), before);
  poll(fd, 5, 9);  // serves exactly 4..5
  const auto* r2 = env.last_body<PollReplyMsg>(MsgType::kPollReply);
  EXPECT_EQ(r2->lo, 4);
  EXPECT_EQ(r2->hi, 5);
}

// ----------------------------------------------------------- Fig. 2 units

TEST(SigmaToHSigmaBcastUnits, LabelsFollowLearnedMembership) {
  class FixedSigma final : public SigmaHandle {
   public:
    [[nodiscard]] Multiset<Id> trusted() const override { return {1, 2}; }
  };
  FixedSigma sigma;
  ScriptEnv env(2);
  SigmaToHSigmaBcast red(sigma);
  red.on_start(env);
  EXPECT_EQ(env.count(MsgType::kSigIdent), 1u);
  // Before hearing itself: no labels.
  EXPECT_TRUE(red.snapshot().labels.empty());
  red.on_message(env, make_message(MsgType::kSigIdent, SigIdentMsg{2}));
  EXPECT_EQ(red.snapshot().labels, (std::set<Label>{Label::of_set({2})}));
  red.on_message(env, make_message(MsgType::kSigIdent, SigIdentMsg{5}));
  EXPECT_EQ(red.snapshot().labels.size(), 2u);  // {2}, {2,5}
  // Quora accumulated from Σ: label = support set, multiset = the output.
  EXPECT_TRUE(red.snapshot().quora.contains(Label::of_set({1, 2})));
}

// ----------------------------------------------------------- Fig. 4 units

TEST(HSigmaToSigmaUnits, PicksCandidateWithBestWorstRank) {
  ScriptHSigma hsigma;
  const Label la = Label::of_text("a"), lb = Label::of_text("b");
  hsigma.snap.quora.emplace(la, Multiset<Id>{1, 2});
  hsigma.snap.quora.emplace(lb, Multiset<Id>{3});
  class FixedRanker final : public RankerHandle {
   public:
    [[nodiscard]] std::vector<Id> alive_list() const override { return {3, 1, 2}; }
  };
  FixedRanker ranker;
  ScriptEnv env(1);
  HSigmaToSigma red(hsigma, ranker);
  red.on_start(env);  // broadcasts LABELS, no candidates known yet
  EXPECT_TRUE(red.trusted().empty());
  // Learn carriers: ids 1,2 carry a; id 3 carries b.
  red.on_message(env, make_message(MsgType::kLabels, LabelsMsg{1, {la}}));
  red.on_message(env, make_message(MsgType::kLabels, LabelsMsg{2, {la}}));
  red.on_message(env, make_message(MsgType::kLabels, LabelsMsg{3, {lb}}));
  red.on_timer(env, env.timers.back().id);
  // Candidate {3} has worst rank 1; candidate {1,2} has worst rank 3.
  EXPECT_EQ(red.trusted(), (Multiset<Id>{3}));
}

TEST(HSigmaToSigmaUnits, UnexplainedQuorumIsNotACandidate) {
  ScriptHSigma hsigma;
  const Label la = Label::of_text("a");
  hsigma.snap.quora.emplace(la, Multiset<Id>{1, 2});
  class EmptyRanker final : public RankerHandle {
   public:
    [[nodiscard]] std::vector<Id> alive_list() const override { return {}; }
  };
  EmptyRanker ranker;
  ScriptEnv env(1);
  HSigmaToSigma red(hsigma, ranker);
  red.on_start(env);
  red.on_message(env, make_message(MsgType::kLabels, LabelsMsg{1, {la}}));
  // Only id 1 known to carry `a`: the pair (a, {1,2}) is not explained.
  red.on_timer(env, env.timers.back().id);
  EXPECT_TRUE(red.trusted().empty());
}

TEST(HSigmaToSigmaUnits, MultiplicityAboveOneNeverExplainedUnderUniqueIds) {
  ScriptHSigma hsigma;
  const Label la = Label::of_text("a");
  hsigma.snap.quora.emplace(la, Multiset<Id>{1, 1});  // homonymous quorum
  class EmptyRanker final : public RankerHandle {
   public:
    [[nodiscard]] std::vector<Id> alive_list() const override { return {1}; }
  };
  EmptyRanker ranker;
  ScriptEnv env(1);
  HSigmaToSigma red(hsigma, ranker);
  red.on_start(env);
  red.on_message(env, make_message(MsgType::kLabels, LabelsMsg{1, {la}}));
  red.on_timer(env, env.timers.back().id);
  EXPECT_TRUE(red.trusted().empty());  // Theorem 2 assumes unique identifiers
}

// ----------------------------------------------------- heartbeat HΩ units

TEST(HeartbeatUnits, CountsHomonymCopiesAtSettledSeq) {
  ScriptEnv env(5);
  HOmegaHeartbeat fd(4);
  fd.on_start(env);
  // Two homonyms named 2 at sequences 1..3; our own heartbeats too.
  for (std::int64_t s = 1; s <= 3; ++s) {
    fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{2, s}));
    fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{2, s}));
    fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{5, s}));
  }
  env.now = 12;
  fd.on_timer(env, env.timers.back().id);
  EXPECT_EQ(fd.h_omega(), (HOmegaOut{2, 2}));
}

TEST(HeartbeatUnits, LateHeartbeatGrowsLag) {
  ScriptEnv env(5);
  HOmegaHeartbeat fd(4);
  fd.on_start(env);
  for (std::int64_t s = 1; s <= 5; ++s) {
    fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{2, s}));
  }
  EXPECT_EQ(fd.lag(), 1);
  // Sequence 3 arrives again long after 5 was seen: beyond the settled point.
  fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{2, 3}));
  EXPECT_EQ(fd.lag(), 2);
}

TEST(HeartbeatUnits, StaleIdentifierLosesLeadership) {
  ScriptEnv env(5);
  HOmegaHeartbeat fd(4);
  fd.on_start(env);
  env.now = 4;
  fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{2, 1}));
  fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{9, 1}));
  fd.on_timer(env, env.timers.back().id);
  EXPECT_EQ(fd.h_omega().leader, 2u);
  // Id 2 goes silent; id 9 keeps beating.
  for (std::int64_t s = 2; s <= 8; ++s) {
    env.now = 4 * s;
    fd.on_message(env, make_message(MsgType::kHeartbeat, HeartbeatMsg{9, s}));
    fd.on_timer(env, env.timers.back().id);
  }
  EXPECT_EQ(fd.h_omega().leader, 9u);
}

// --------------------------------------------------------- ranker trivia

TEST(RankOf, AbsentIdIsInfinity) {
  EXPECT_EQ(rank_of(5, {1, 2, 3}), std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(rank_of(2, {1, 2, 3}), 2u);
  EXPECT_EQ(rank_of(1, {}), std::numeric_limits<std::size_t>::max());
}

}  // namespace
}  // namespace hds
