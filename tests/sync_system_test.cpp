// Tests of the lock-step synchronous engine (the HSS model).
#include "sim/sync_system.h"

#include <gtest/gtest.h>

#include <memory>

namespace hds {
namespace {

struct StepMsg {
  Id from;
  std::size_t step;
};

class Echo final : public SyncProcess {
 public:
  explicit Echo(Id id) : id_(id) {}
  std::vector<Message> step_send(std::size_t step) override {
    sends.push_back(step);
    return {make_message(MsgType::kTest0, StepMsg{id_, step})};
  }
  void step_recv(std::size_t step, const std::vector<Message>& delivered) override {
    std::vector<Id> froms;
    for (const Message& m : delivered) {
      if (const auto* b = m.as<StepMsg>()) {
        EXPECT_EQ(b->step, step);  // only this step's messages are delivered
        froms.push_back(b->from);
      }
    }
    recvs.push_back(froms);
  }
  Id id_;
  std::vector<std::size_t> sends;
  std::vector<std::vector<Id>> recvs;
};

SyncConfig base_config(std::size_t n) {
  SyncConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.seed = 5;
  return cfg;
}

TEST(SyncSystem, EveryStepDeliversAllAliveSenders) {
  SyncSystem sys(base_config(3));
  std::vector<Echo*> procs;
  for (ProcIndex i = 0; i < 3; ++i) {
    auto p = std::make_unique<Echo>(sys.id_of(i));
    procs.push_back(p.get());
    sys.set_process(i, std::move(p));
  }
  sys.run_steps(4);
  EXPECT_EQ(sys.steps_run(), 4u);
  for (auto* p : procs) {
    ASSERT_EQ(p->recvs.size(), 4u);
    for (const auto& froms : p->recvs) EXPECT_EQ(froms.size(), 3u);
  }
}

TEST(SyncSystem, CrashedProcessSendsInItsLastStepThenVanishes) {
  auto cfg = base_config(3);
  cfg.crashes = {std::nullopt, SyncCrashPlan{1, false}, std::nullopt};
  SyncSystem sys(std::move(cfg));
  std::vector<Echo*> procs;
  for (ProcIndex i = 0; i < 3; ++i) {
    auto p = std::make_unique<Echo>(sys.id_of(i));
    procs.push_back(p.get());
    sys.set_process(i, std::move(p));
  }
  sys.run_steps(3);
  // The crasher sent in steps 0 and 1 only, and never received in step 1+.
  EXPECT_EQ(procs[1]->sends, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(procs[1]->recvs.size(), 1u);
  // Survivors saw 3 senders in steps 0 and 1, then 2.
  EXPECT_EQ(procs[0]->recvs[0].size(), 3u);
  EXPECT_EQ(procs[0]->recvs[1].size(), 3u);
  EXPECT_EQ(procs[0]->recvs[2].size(), 2u);
}

TEST(SyncSystem, PartialBroadcastOnCrashDropsPerDestination) {
  int delivered = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    auto cfg = base_config(5);
    cfg.seed = 200 + trial;
    cfg.crashes.resize(5);
    cfg.crashes[0] = SyncCrashPlan{0, /*partial_broadcast=*/true};
    cfg.dying_copy_delivery_prob = 0.5;
    SyncSystem sys(std::move(cfg));
    std::vector<Echo*> procs;
    for (ProcIndex i = 0; i < 5; ++i) {
      auto p = std::make_unique<Echo>(sys.id_of(i));
      procs.push_back(p.get());
      sys.set_process(i, std::move(p));
    }
    sys.run_steps(1);
    for (ProcIndex i = 1; i < 5; ++i) {
      for (Id from : procs[i]->recvs[0]) {
        if (from == 1) ++delivered;  // the dying sender's id
      }
    }
  }
  const int max_possible = trials * 4;
  EXPECT_GT(delivered, max_possible / 5);
  EXPECT_LT(delivered, max_possible * 4 / 5);
}

TEST(SyncSystem, GroundTruth) {
  auto cfg = base_config(4);
  cfg.crashes = {std::nullopt, SyncCrashPlan{2, false}, std::nullopt, std::nullopt};
  SyncSystem sys(std::move(cfg));
  EXPECT_FALSE(sys.is_correct(1));
  EXPECT_TRUE(sys.alive_in_step(1, 2));   // sends in its crash step
  EXPECT_FALSE(sys.alive_in_step(1, 3));
  EXPECT_EQ(sys.correct_ids(), (Multiset<Id>{1, 3, 4}));
  EXPECT_EQ(sys.alive_count_in_step(0), 4u);
  EXPECT_EQ(sys.alive_count_in_step(3), 3u);
}

TEST(SyncSystem, CountsMessages) {
  SyncSystem sys(base_config(2));
  for (ProcIndex i = 0; i < 2; ++i) sys.set_process(i, std::make_unique<Echo>(sys.id_of(i)));
  sys.run_steps(5);
  EXPECT_EQ(sys.messages_sent(), 10u);
}

TEST(SyncSystem, ValidatesConfig) {
  SyncConfig empty;
  EXPECT_THROW(SyncSystem{std::move(empty)}, std::invalid_argument);
  auto cfg = base_config(2);
  cfg.crashes.resize(1);
  EXPECT_THROW(SyncSystem{std::move(cfg)}, std::invalid_argument);
}

}  // namespace
}  // namespace hds
