// Tests of protocol stacking: message fan-out to all components, timer
// routing to the arming component.
#include "sim/stacked_process.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/system.h"

namespace hds {
namespace {

struct Tick {};

class Component final : public Process {
 public:
  explicit Component(SimTime delay) : delay_(delay) {}
  void on_start(Env& env) override { env.set_timer(delay_); }
  void on_message(Env&, const Message& m) override { seen.push_back(m.type); }
  void on_timer(Env& env, TimerId) override {
    ++timer_count;
    timer_at = env.local_now();
  }
  SimTime delay_;
  std::vector<MsgType> seen;
  int timer_count = 0;
  SimTime timer_at = -1;
};

class Sender final : public Process {
 public:
  void on_start(Env& env) override { env.broadcast(make_message(MsgType::kTest0, Tick{})); }
};

TEST(StackedProcess, MessagesReachEveryComponentTimersOnlyTheirOwner) {
  SystemConfig cfg;
  cfg.ids = {1, 2};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));

  auto stack = std::make_unique<StackedProcess>();
  auto* a = stack->add(std::make_unique<Component>(5));
  auto* b = stack->add(std::make_unique<Component>(9));
  sys.set_process(0, std::move(stack));
  sys.set_process(1, std::make_unique<Sender>());
  sys.start();
  sys.run_until(20);

  EXPECT_EQ(a->seen, std::vector<MsgType>{MsgType::kTest0});
  EXPECT_EQ(b->seen, std::vector<MsgType>{MsgType::kTest0});
  EXPECT_EQ(a->timer_count, 1);
  EXPECT_EQ(b->timer_count, 1);
  EXPECT_EQ(a->timer_at, 5);
  EXPECT_EQ(b->timer_at, 9);
}

TEST(StackedProcess, ComponentsShareTheNodeIdentity) {
  class IdProbe final : public Process {
   public:
    void on_start(Env& env) override { seen_id = env.self_id(); }
    Id seen_id = 0;
  };
  SystemConfig cfg;
  cfg.ids = {42};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  auto stack = std::make_unique<StackedProcess>();
  auto* p1 = stack->add(std::make_unique<IdProbe>());
  auto* p2 = stack->add(std::make_unique<IdProbe>());
  sys.set_process(0, std::move(stack));
  sys.start();
  sys.run_until(1);
  EXPECT_EQ(p1->seen_id, 42u);
  EXPECT_EQ(p2->seen_id, 42u);
}

TEST(StackedProcess, RepeatingTimersKeepRouting) {
  class Repeater final : public Process {
   public:
    void on_start(Env& env) override { env.set_timer(2); }
    void on_timer(Env& env, TimerId) override {
      ++count;
      if (count < 5) env.set_timer(2);
    }
    int count = 0;
  };
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  auto stack = std::make_unique<StackedProcess>();
  auto* r = stack->add(std::make_unique<Repeater>());
  auto* other = stack->add(std::make_unique<Component>(100));
  sys.set_process(0, std::move(stack));
  sys.start();
  sys.run_until(50);
  EXPECT_EQ(r->count, 5);
  EXPECT_EQ(other->timer_count, 0);  // its 100-tick timer hasn't fired
}

}  // namespace
}  // namespace hds
