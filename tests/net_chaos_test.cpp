// Runtime fault injection on an in-process NetSystem cluster: interposed
// drops, delayed and duplicated datagrams, plan-scheduled crashes during
// live traffic, and the sender-side accounting invariant (every per-link
// copy is sent or lost to a link fault).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "net/net_system.h"
#include "support/net_cluster.h"

namespace hds::net {
namespace {

using namespace std::chrono_literals;
using chaos::ClauseKind;
using chaos::FaultClause;
using chaos::FaultInjector;
using chaos::FaultPlan;

// Sums one counter over every node of the cluster.
template <typename Field>
std::uint64_t total(Cluster& c, Field field) {
  std::uint64_t sum = 0;
  for (auto& s : c.sys) sum += s->net_stats().*field;
  return sum;
}

TEST(NetChaos, PartitionClauseDropsCopiesAndCountsThem) {
  FaultPlan plan;
  FaultClause part;
  part.kind = ClauseKind::kPartition;
  part.links.src = {0};
  plan.clauses = {part};  // never heals: everything from node 0 is dropped
  FaultInjector inj(plan, {1, 2, 3}, 5);

  Cluster c({1, 2, 3});
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  inj.arm(c.sys);
  c.start_all();
  // Nodes 1 and 2 broadcast cleanly: everyone hears those two, and node 0's
  // copies (its own loopback copy included) never land.
  for (ProcIndex i = 0; i < 3; ++i) EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], 2));
  std::this_thread::sleep_for(50ms);  // would-be late arrival window
  for (ProcIndex i = 0; i < 3; ++i) EXPECT_EQ(pings_of(*c.sys[i], *procs[i]), 2);
  EXPECT_EQ(total(c, &NetNetworkStats::broadcasts), 3u);
  EXPECT_EQ(c.sys[0]->net_stats().copies_lost_link, 3u);
  EXPECT_EQ(total(c, &NetNetworkStats::copies_lost_link), 3u);
  EXPECT_EQ(total(c, &NetNetworkStats::copies_sent), 6u);
  EXPECT_EQ(inj.stats().copies_dropped, 3u);
}

TEST(NetChaos, DelayClauseDefersDelivery) {
  FaultPlan plan;
  FaultClause slow;
  slow.kind = ClauseKind::kDelay;
  slow.delay = 80;  // ms on this substrate
  plan.clauses = {slow};
  FaultInjector inj(plan, {1, 2}, 5);

  Cluster c({1, 2});
  const auto procs = install_pings(c);
  procs[1]->ping_on_start = false;  // node 0's broadcast is the only traffic
  ASSERT_TRUE(c.barrier());
  inj.arm(c.sys);
  const auto t0 = std::chrono::steady_clock::now();
  c.start_all();
  ASSERT_TRUE(await_pings(*c.sys[1], *procs[1], 1));
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 80);
  EXPECT_EQ(inj.stats().copies_delayed, 2u);  // both of node 0's copies
}

TEST(NetChaos, DuplicateClauseDeliversExtraCopies) {
  FaultPlan plan;
  FaultClause dup;
  dup.kind = ClauseKind::kDuplicate;
  dup.prob = 1.0;
  dup.count = 2;
  dup.delay = 2;
  plan.clauses = {dup};
  FaultInjector inj(plan, {1, 2}, 5);

  Cluster c({1, 2});
  const auto procs = install_pings(c);
  procs[1]->ping_on_start = false;
  ASSERT_TRUE(c.barrier());
  inj.arm(c.sys);
  c.start_all();
  // One broadcast, two links, each original copy trailed by 2 duplicates.
  for (ProcIndex i = 0; i < 2; ++i) EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], 3));
  std::this_thread::sleep_for(50ms);
  for (ProcIndex i = 0; i < 2; ++i) EXPECT_EQ(pings_of(*c.sys[i], *procs[i]), 3);
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.copies_sent, 6u);  // originals plus duplicates
  EXPECT_EQ(s0.copies_duplicated, 4u);
  EXPECT_EQ(total(c, &NetNetworkStats::copies_delivered), 6u);
  EXPECT_EQ(inj.stats().copies_duplicated, 4u);
}

TEST(NetChaos, PlanScheduledCrashSilencesNodeDuringTraffic) {
  FaultPlan plan;
  FaultClause cr;
  cr.kind = ClauseKind::kCrashAt;
  cr.proc = 1;
  cr.at = 60;  // ms after arm
  plan.clauses = {cr};
  FaultInjector inj(plan, {1, 2}, 5);

  Cluster c({1, 2});
  const auto procs = install_pings(c);
  procs[0]->period_ms = 15;  // keeps broadcasting across the crash instant
  ASSERT_TRUE(c.barrier());
  inj.arm(c.sys);
  c.start_all();
  // The injector counts a crash right after enacting it.
  ASSERT_TRUE(c.sys[1]->wait_for([&] { return inj.stats().crashes_injected == 1; }, 5s));
  EXPECT_TRUE(c.sys[1]->is_crashed());
  // Let traffic continue: the crashed node's tally must stop moving while
  // the sender keeps broadcasting at it (a UDP sender cannot see the crash).
  // A handler already running at the crash instant may still finish first.
  std::this_thread::sleep_for(20ms);
  const std::uint64_t delivered_at_crash = c.sys[1]->net_stats().copies_delivered;
  EXPECT_GT(delivered_at_crash, 0u);
  const std::uint64_t sent_at_crash = c.sys[0]->net_stats().broadcasts;
  ASSERT_TRUE(c.sys[0]->wait_for(
      [&] { return c.sys[0]->net_stats().broadcasts >= sent_at_crash + 3; }, 5s));
  EXPECT_EQ(c.sys[1]->net_stats().copies_delivered, delivered_at_crash);
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.copies_sent - s0.copies_duplicated + s0.copies_lost_link, 2u * s0.broadcasts);
}

TEST(NetChaos, AdmissiblePlanConsensusStillDecides) {
  // The fig8 stack's admissible adversary (delay shaping + a crash within
  // t) on real sockets: consensus must still terminate and agree.
  FaultPlan plan;
  FaultClause slow;
  slow.kind = ClauseKind::kDelay;
  slow.delay = 3;
  slow.until = 200;  // ms: transient pre-"GST" inflation
  FaultClause cr;
  cr.kind = ClauseKind::kCrashAt;
  cr.proc = 3;
  cr.at = 30;
  plan.clauses = {slow, cr};
  const std::vector<Id> ids = {1, 1, 2, 3};
  FaultInjector inj(plan, ids, 5);

  Cluster c(ids, /*seed=*/5);
  const auto cons = install_fig8(c, /*t=*/1, /*base=*/100);
  ASSERT_TRUE(c.barrier());
  inj.arm(c.sys);
  c.start_all();
  const std::vector<Value> values = await_decisions(c, cons, {0, 1, 2});
  ASSERT_EQ(values.size(), 3u) << "consensus did not terminate under the admissible plan";
  // Loopback consensus may decide before the crash instant; the crash still
  // lands, and nothing it does may break agreement.
  ASSERT_TRUE(c.sys[3]->wait_for([&] { return inj.stats().crashes_injected == 1; }, 5s));
  EXPECT_TRUE(c.sys[3]->is_crashed());
  for (const Value v : values) EXPECT_EQ(v, values.front());  // agreement
  EXPECT_GE(values.front(), 100);                              // validity
  EXPECT_LE(values.front(), 103);
}

}  // namespace
}  // namespace hds::net
