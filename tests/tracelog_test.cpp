// Tests of the structured event log: recorded kinds, ordering, filters,
// capacity behaviour, and zero overhead when disabled.
#include "sim/tracelog.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/system.h"

namespace hds {
namespace {

struct EchoMsg {};

class Chatter final : public Process {
 public:
  void on_start(Env& env) override {
    env.broadcast(make_message(MsgType::kTest0, EchoMsg{}));
    env.set_timer(5);
  }
  void on_timer(Env&, TimerId) override { ++timer_fires; }
  int timer_fires = 0;
};

std::unique_ptr<System> make_system(std::size_t trace_capacity) {
  SystemConfig cfg;
  cfg.ids = {1, 2, 3};
  cfg.timing = std::make_unique<AsyncTiming>(1, 2);
  cfg.crashes = {std::nullopt, CrashPlan{3}, std::nullopt};
  cfg.seed = 4;
  cfg.trace_capacity = trace_capacity;
  auto sys = std::make_unique<System>(std::move(cfg));
  for (ProcIndex i = 0; i < 3; ++i) sys->set_process(i, std::make_unique<Chatter>());
  return sys;
}

TEST(TraceLog, DisabledByDefaultRecordsNothing) {
  auto sys_ptr = make_system(0);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  EXPECT_FALSE(sys.trace().enabled());
  EXPECT_TRUE(sys.trace().events().empty());
}

TEST(TraceLog, RecordsStartsBroadcastsDeliveriesTimersCrashes) {
  auto sys_ptr = make_system(10'000);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  const TraceLog& log = sys.trace();
  ASSERT_TRUE(log.enabled());
  std::map<TraceEvent::Kind, std::size_t> kinds;
  for (const auto& e : log.events()) ++kinds[e.kind];
  EXPECT_EQ(kinds[TraceEvent::Kind::kStart], 3u);
  EXPECT_EQ(kinds[TraceEvent::Kind::kBroadcast], 3u);  // one TEST0 each
  EXPECT_EQ(kinds[TraceEvent::Kind::kCrash], 1u);
  EXPECT_GE(kinds[TraceEvent::Kind::kTimer], 2u);  // the crashed one may miss
  // 9 copies: some to the process crashed at t=3 may arrive late.
  EXPECT_EQ(kinds[TraceEvent::Kind::kDeliver] + kinds[TraceEvent::Kind::kToDead], 9u);
}

TEST(TraceLog, EventsAreTimeOrdered) {
  auto sys_ptr = make_system(10'000);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  const auto& evs = sys.trace().events();
  for (std::size_t k = 1; k < evs.size(); ++k) EXPECT_LE(evs[k - 1].at, evs[k].at);
}

TEST(TraceLog, Filters) {
  auto sys_ptr = make_system(10'000);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  const TraceLog& log = sys.trace();
  for (const auto& e : log.by_proc(0)) EXPECT_EQ(e.proc, 0u);
  for (const auto& e : log.by_type("TEST0")) EXPECT_EQ(e.msg_type, "TEST0");
  auto counts = log.counts_by_type(TraceEvent::Kind::kBroadcast);
  EXPECT_EQ(counts["TEST0"], 3u);
}

TEST(TraceLog, CapacityTruncates) {
  auto sys_ptr = make_system(4);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  EXPECT_EQ(sys.trace().events().size(), 4u);
  EXPECT_TRUE(sys.trace().truncated());
}

TEST(TraceLog, RingKeepsLatestAndCountsDropped) {
  // Run the same workload with an unbounded log and a tiny ring; the ring
  // must hold exactly the LAST `capacity` events of the full sequence, and
  // dropped() must account for every evicted event.
  auto full_ptr = make_system(10'000);
  full_ptr->start();
  full_ptr->run_until(20);
  const auto all = full_ptr->trace().events();
  ASSERT_GT(all.size(), 4u);

  auto ring_ptr = make_system(4);
  ring_ptr->start();
  ring_ptr->run_until(20);
  const TraceLog& ring = ring_ptr->trace();
  EXPECT_EQ(ring.dropped(), all.size() - 4u);
  EXPECT_EQ(ring.recorded(), all.size());
  const auto kept = ring.events();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto& want = all[all.size() - 4 + k];
    EXPECT_EQ(kept[k].at, want.at);
    EXPECT_EQ(kept[k].kind, want.kind);
    EXPECT_EQ(kept[k].proc, want.proc);
  }
}

TEST(TraceLog, UntruncatedRingDropsNothing) {
  auto sys_ptr = make_system(10'000);
  sys_ptr->start();
  sys_ptr->run_until(20);
  EXPECT_EQ(sys_ptr->trace().dropped(), 0u);
  EXPECT_FALSE(sys_ptr->trace().truncated());
  EXPECT_EQ(sys_ptr->trace().recorded(), sys_ptr->trace().events().size());
}

TEST(TraceLog, DumpMentionsDroppedEvents) {
  auto sys_ptr = make_system(4);
  sys_ptr->start();
  sys_ptr->run_until(20);
  const std::string dump = sys_ptr->trace().dump(10);
  EXPECT_NE(dump.find("ring dropped"), std::string::npos);
}

TEST(TraceLog, DumpIsReadable) {
  auto sys_ptr = make_system(10'000);
  System& sys = *sys_ptr;
  sys.start();
  sys.run_until(20);
  const std::string dump = sys.trace().dump(5);
  EXPECT_NE(dump.find("t0 p0 start"), std::string::npos);
  EXPECT_NE(dump.find("more)"), std::string::npos);  // elided tail marker
}

TEST(TraceLog, KindNamesCoverAllKinds) {
  using K = TraceEvent::Kind;
  for (K k : {K::kStart, K::kBroadcast, K::kDeliver, K::kLost, K::kLostDying, K::kDuplicate,
              K::kToDead, K::kTimer, K::kCrash}) {
    EXPECT_STRNE(TraceEvent::kind_name(k), "?");
  }
}

TEST(TraceLog, LossyLinksRecordLostCopies) {
  SystemConfig cfg;
  cfg.ids = {1, 2};
  cfg.timing = std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
      .gst = 1000, .delta = 1, .pre_gst_loss = 1.0, .pre_gst_max_delay = 1});
  cfg.seed = 1;
  cfg.trace_capacity = 1000;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 2; ++i) sys.set_process(i, std::make_unique<Chatter>());
  sys.start();
  sys.run_until(10);
  std::size_t lost = 0;
  for (const auto& e : sys.trace().events()) {
    if (e.kind == TraceEvent::Kind::kLost) ++lost;
  }
  EXPECT_EQ(lost, 4u);  // both TEST0 broadcasts fully dropped pre-GST
}

}  // namespace
}  // namespace hds
