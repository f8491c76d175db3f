// NetSystem integration tests: several NetSystem instances in ONE process,
// each with its own UDP socket on an ephemeral loopback port, exchanging
// real datagrams. This covers the substrate (codec + batching + demux +
// barrier + interposer seam, timers, crashes, config validation) and the
// Fig. 8 / Fig. 9 consensus stacks under real concurrency without
// fork/exec; the multi-process path is exercised by the net_cluster_fig8
// ctest entry (tools/hds_cluster).
#include "net/net_system.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/link_fault.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/oracles.h"
#include "net/codec.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "support/net_cluster.h"

namespace hds::net {
namespace {

using namespace std::chrono_literals;

TEST(NetSystem, DeliversBroadcastsAcrossRealSockets) {
  constexpr std::size_t kN = 3;
  Cluster c({1, 2, 3});
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], kN)) << "node " << i;
  }
  // The ALIVE frame really crossed the wire: size metadata matches the codec.
  const Message sample = make_message(MsgType::kAlive, AliveMsg{1});
  const auto expect_bytes = encoded_frame_size(builtin_codecs(), sample, 0, 1);
  ASSERT_TRUE(expect_bytes.has_value());
  EXPECT_EQ(c.sys[0]->query([&](Process&) { return procs[0]->last_wire_bytes; }), *expect_bytes);

  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.broadcasts, 1u);
  EXPECT_EQ(s0.copies_sent, kN);
  EXPECT_EQ(s0.copies_delivered, kN);  // one from each peer + self
  EXPECT_EQ(s0.copies_lost_link, 0u);
  EXPECT_EQ(s0.decode_errors, 0u);
  EXPECT_GT(s0.bytes_sent, 0u);
  EXPECT_GT(s0.bytes_received, 0u);
  EXPECT_GT(s0.packets_sent, 0u);
  EXPECT_GT(s0.packets_received, 0u);
}

TEST(NetSystem, BroadcastReachesAllNodesIncludingSelf) {
  constexpr std::size_t kN = 3;
  Cluster c({1, 2, 3});
  const auto procs = install_pings(c);
  for (std::size_t i = 1; i < kN; ++i) procs[i]->ping_on_start = false;
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Node 0's single broadcast reaches every node, node 0 itself included.
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], 1)) << "node " << i;
  }
  std::this_thread::sleep_for(50ms);  // no second copy arrives late
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(pings_of(*c.sys[i], *procs[i]), 1) << "node " << i;
    EXPECT_EQ(c.sys[i]->net_stats().broadcasts, i == 0 ? 1u : 0u) << "node " << i;
  }
}

TEST(NetSystem, NetStatsCountBroadcastsAndDeliveries) {
  constexpr std::size_t kN = 3;
  Cluster c({1, 2, 3});
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Each node broadcasts once; each copy reaches all 3 nodes.
  for (std::size_t i = 0; i < kN; ++i) ASSERT_TRUE(await_pings(*c.sys[i], *procs[i], kN));
  NetNetworkStats total;
  for (std::size_t i = 0; i < kN; ++i) {
    const NetNetworkStats s = c.sys[i]->net_stats();
    EXPECT_EQ(s.broadcasts, 1u) << "node " << i;
    EXPECT_EQ(s.copies_sent, kN) << "node " << i;
    EXPECT_EQ(s.copies_delivered, kN) << "node " << i;
    total.broadcasts += s.broadcasts;
    total.copies_sent += s.copies_sent;
    total.copies_delivered += s.copies_delivered;
    total.copies_lost_link += s.copies_lost_link;
    total.copies_duplicated += s.copies_duplicated;
    for (const auto& [type, count] : s.broadcasts_by_type) total.broadcasts_by_type[type] += count;
  }
  EXPECT_EQ(total.broadcasts, kN);
  EXPECT_EQ(total.copies_sent, kN * kN);
  EXPECT_EQ(total.copies_delivered, kN * kN);
  EXPECT_EQ(total.copies_lost_link, 0u);
  EXPECT_EQ(total.copies_duplicated, 0u);
  EXPECT_EQ(total.broadcasts_by_type[type_name(MsgType::kAlive)], kN);
  EXPECT_EQ(total.broadcasts_by_type.size(), 1u);
}

TEST(NetSystem, ByteCountersTrackEstimatedFrameSizes) {
  // Every delivered copy carries its exact v1 frame size, and the datagram
  // byte counters cover at least those frames on both ends of the wire.
  constexpr std::size_t kN = 3;
  Cluster c({1, 2, 3}, /*seed=*/1, /*batching=*/false);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) ASSERT_TRUE(await_pings(*c.sys[i], *procs[i], kN));
  const auto frame = encoded_frame_size(builtin_codecs(),
                                        make_message(MsgType::kAlive, AliveMsg{1}), 0, 1);
  ASSERT_TRUE(frame.has_value());
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(c.sys[i]->query([&](Process&) { return procs[i]->wire_bytes; }), kN * *frame)
        << "node " << i;
    const NetNetworkStats s = c.sys[i]->net_stats();
    EXPECT_GE(s.bytes_sent, kN * *frame) << "node " << i;
    EXPECT_GE(s.bytes_received, kN * *frame) << "node " << i;
  }
}

TEST(NetSystem, TimersFire) {
  Cluster c({1});
  auto p = std::make_unique<PingProcess>();
  p->ping_on_start = false;
  p->period_ms = 10;
  const PingProcess* probe = p.get();
  c.sys[0]->set_process(std::move(p));
  ASSERT_TRUE(c.barrier());
  c.start_all();
  EXPECT_TRUE(c.sys[0]->wait_for(
      [&] { return c.sys[0]->query([&](Process&) { return probe->timers; }) >= 2; }, 5s));
}

TEST(NetSystem, QueryOnACrashingNodeThrows) {
  // Query 1 holds the loop thread on a latch while query 2 waits in the
  // mailbox; the crash drops query 2 unrun, and its caller must get the
  // crash error instead of blocking forever.
  Cluster c({1});
  install_pings(c);
  c.start_all();
  std::latch running(1);
  std::latch release(1);
  auto q1 = std::async(std::launch::async, [&] {
    return c.sys[0]->query([&](Process&) {
      running.count_down();
      release.wait();
      return 1;
    });
  });
  running.wait();
  auto q2 = std::async(std::launch::async,
                       [&] { return c.sys[0]->query([](Process&) { return 2; }); });
  std::this_thread::sleep_for(50ms);  // let query 2 reach the mailbox
  c.sys[0]->crash();
  release.count_down();
  EXPECT_EQ(q1.get(), 1);  // already running at the crash: completes
  ASSERT_EQ(q2.wait_for(5s), std::future_status::ready) << "query 2 hangs after the crash";
  EXPECT_THROW(q2.get(), std::runtime_error);
  EXPECT_THROW(c.sys[0]->query([](Process&) {}), std::runtime_error);
}

TEST(NetSystem, QueryAfterStopThrows) {
  // A stopped node never dispatches again; a query must fail, not wait.
  Cluster c({1});
  install_pings(c);
  c.start_all();
  c.sys[0]->stop();
  EXPECT_THROW(c.sys[0]->query([](Process&) {}), std::runtime_error);
  EXPECT_FALSE(c.sys[0]->is_crashed());
}

// Threads of this process, as the kernel lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : std::filesystem::directory_iterator("/proc/self/task")) ++n;
  return n;
}

TEST(NetSystem, RunsOneThreadPerNode) {
  // Receive, dispatch, batching and the ARQ timer share one event loop, so
  // even a reliability-on node adds exactly one thread, from construction to
  // stop(). ThreadSanitizer starts its own helper thread alongside the
  // process's first extra thread; one throwaway thread puts it in the
  // baseline.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  Cluster c({1}, /*seed=*/1, /*batching=*/true, /*metrics=*/nullptr, /*reliable=*/true);
  EXPECT_EQ(thread_count(), before + 1);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  ASSERT_TRUE(await_pings(*c.sys[0], *procs[0], 1));
  EXPECT_EQ(thread_count(), before + 1);
  c.sys[0]->stop();
  // A joined thread can linger in the task list for an instant while the
  // kernel reaps it.
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return thread_count() == before; }, 1s));
}

// Records on_start and every ALIVE delivery, in dispatch order.
class DispatchLog : public Process {
 public:
  void on_start(Env&) override { events.emplace_back("start"); }
  void on_message(Env&, const Message& m) override {
    if (m.type == MsgType::kAlive) events.emplace_back("deliver");
  }
  std::vector<std::string> events;
};

TEST(NetSystem, FramesReceivedBeforeStartDispatchAfterOnStart) {
  Cluster c({1, 2});
  c.sys[0]->set_process(std::make_unique<PingProcess>());  // pings on start
  auto log = std::make_unique<DispatchLog>();
  const DispatchLog* probe = log.get();
  c.sys[1]->set_process(std::move(log));
  ASSERT_TRUE(c.barrier());
  const std::uint64_t after_barrier = c.sys[1]->net_stats().packets_received;
  c.sys[0]->start();
  ASSERT_TRUE(c.sys[1]->wait_for(
      [&] { return c.sys[1]->net_stats().packets_received > after_barrier; }, 5s));
  EXPECT_EQ(c.sys[1]->net_stats().copies_delivered, 0u);  // queued, not dispatched

  c.sys[1]->start();
  const auto events = [&] { return c.sys[1]->query([&](Process&) { return probe->events; }); };
  ASSERT_TRUE(c.sys[1]->wait_for([&] { return events().size() >= 2; }, 5s));
  EXPECT_EQ(events(), (std::vector<std::string>{"start", "deliver"}));
}

TEST(NetSystem, CrashedNodeStopsReceiving) {
  Cluster c({1, 2});
  const auto procs = install_pings(c);
  procs[0]->period_ms = 10;  // node 0 keeps broadcasting across the crash
  ASSERT_TRUE(c.barrier());
  c.start_all();
  ASSERT_TRUE(c.sys[1]->wait_for([&] { return pings_of(*c.sys[1], *procs[1]) >= 2; }, 5s));

  c.sys[1]->crash();
  EXPECT_TRUE(c.sys[1]->is_crashed());
  EXPECT_FALSE(c.sys[0]->is_crashed());
  EXPECT_THROW(c.sys[1]->query([](Process&) {}), std::runtime_error);
  std::this_thread::sleep_for(20ms);  // a handler running at the crash may finish
  const std::uint64_t delivered_at_crash = c.sys[1]->net_stats().copies_delivered;
  const std::uint64_t sent_at_crash = c.sys[0]->net_stats().broadcasts;

  // Node 0 keeps broadcasting and hearing itself; node 1's tally stops
  // moving although the same copies keep arriving at its socket.
  const int own = pings_of(*c.sys[0], *procs[0]);
  ASSERT_TRUE(c.sys[0]->wait_for([&] { return pings_of(*c.sys[0], *procs[0]) >= own + 3; }, 5s));
  EXPECT_GT(c.sys[0]->net_stats().broadcasts, sent_at_crash);
  EXPECT_EQ(c.sys[1]->net_stats().copies_delivered, delivered_at_crash);
}

TEST(NetSystem, MetricsRegistryMirrorsNetStats) {
  constexpr std::size_t kN = 3;
  obs::MetricsRegistry reg;
  Cluster c({1, 2, 3}, /*seed=*/1, /*batching=*/true, &reg);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) ASSERT_TRUE(await_pings(*c.sys[i], *procs[i], kN));
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(reg.counter_total("udp_broadcasts_total"), s0.broadcasts);
  EXPECT_EQ(reg.counter_total("udp_copies_delivered_total"), s0.copies_delivered);
  EXPECT_EQ(reg.counter_total("udp_copies_lost_link_total"), s0.copies_lost_link);
  EXPECT_EQ(reg.counter_total("udp_copies_duplicated_total"), s0.copies_duplicated);
  EXPECT_EQ(s0.copies_delivered, kN);
}

TEST(NetSystem, ValidatesConfig) {
  const auto build = [](auto&& edit) {
    NetConfig cfg;
    cfg.peers.resize(2);
    edit(cfg);
    NetSystem sys(std::move(cfg));
  };
  EXPECT_THROW(build([](NetConfig& cfg) { cfg.peers.clear(); }), std::invalid_argument);
  EXPECT_THROW(build([](NetConfig& cfg) { cfg.self = 2; }), std::invalid_argument);
  EXPECT_THROW(build([](NetConfig& cfg) { cfg.flush_interval_ms = -1; }), std::invalid_argument);
  EXPECT_THROW(build([](NetConfig& cfg) { cfg.max_batch_bytes = 0; }), std::invalid_argument);
  EXPECT_NO_THROW(build([](NetConfig&) {}));
}

TEST(NetSystem, Fig8StackDecidesOverLoopbackUdp) {
  constexpr std::size_t kN = 3;
  obs::MetricsRegistry metrics;
  Cluster c({1, 2, 3}, /*seed=*/7, /*batching=*/true, &metrics);
  const auto cons = install_fig8(c, /*t=*/1, /*base=*/100);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  const std::vector<Value> values = await_decisions(c, cons, {0, 1, 2});
  ASSERT_EQ(values.size(), kN) << "a node did not decide";
  for (const Value v : values) {
    EXPECT_EQ(v, values.front());  // agreement
    EXPECT_GE(v, 100);             // validity: someone proposed it
    EXPECT_LT(v, static_cast<Value>(100 + kN));
  }
  // The registry observed real traffic, including batch occupancy.
  const std::string dump = metrics.to_json();
  EXPECT_NE(dump.find("udp_batch_frames"), std::string::npos);
  EXPECT_NE(dump.find("udp_bytes_sent_total"), std::string::npos);
}

TEST(NetSystem, Fig8HomonymousStackDecidesThroughACrash) {
  // Fig. 6 (◇HP̄/HΩ) + Fig. 8 on four nodes with a homonymous pair; node 3
  // crashes mid-run, within t = 1.
  Cluster c({1, 1, 2, 3}, /*seed=*/5);
  const auto cons = install_fig8(c, /*t=*/1, /*base=*/100);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  std::this_thread::sleep_for(30ms);
  c.sys[3]->crash();
  const std::vector<Value> values = await_decisions(c, cons, {0, 1, 2});
  ASSERT_EQ(values.size(), 3u) << "consensus did not terminate among the correct nodes";
  for (const Value v : values) EXPECT_EQ(v, values.front());
  EXPECT_GE(values.front(), 100);
  EXPECT_LE(values.front(), 103);
}

TEST(NetSystem, Fig9QuorumConsensusWithOracles) {
  // Fig. 9 over HΩ+HΣ oracles: the oracles read wall-clock milliseconds and
  // a crash plan the test enacts through node 3's crash().
  const std::vector<Id> ids = {1, 1, 2, 3};
  GroundTruth gt;
  gt.ids = ids;
  gt.correct = {true, true, true, false};
  const auto epoch = std::chrono::steady_clock::now();
  ClockFn clock = [epoch] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
  OracleHOmega fd1(gt, clock, /*stabilize_at=*/60);
  OracleHSigma fd2(gt, clock, /*stabilize_at=*/80);

  Cluster c(ids, /*seed=*/9);
  std::vector<QuorumConsensus*> cons;
  for (ProcIndex i = 0; i < ids.size(); ++i) {
    QuorumConsensusConfig ccfg;
    ccfg.proposal = static_cast<Value>(500 + i);
    ccfg.guard_poll = 5;
    auto proc = std::make_unique<QuorumConsensus>(ccfg, fd1.handle(i), fd2.handle(i));
    cons.push_back(proc.get());
    c.sys[i]->set_process(std::move(proc));
  }
  ASSERT_TRUE(c.barrier());
  c.start_all();
  std::this_thread::sleep_for(25ms);
  c.sys[3]->crash();
  const std::vector<Value> values = await_decisions(c, cons, {0, 1, 2});
  ASSERT_EQ(values.size(), 3u) << "Fig. 9 did not terminate among the correct nodes";
  for (const Value v : values) EXPECT_EQ(v, values.front());
  EXPECT_GE(values.front(), 500);
  EXPECT_LE(values.front(), 503);
}

// Drops every ALIVE copy from node 0 to node 1; node 1 must still hear
// the others, and node 0's stats must attribute the loss to the link.
class DropInterposer : public LinkInterposer {
 public:
  CopyVerdict on_copy(SimTime, ProcIndex from, ProcIndex to, MsgType type) override {
    CopyVerdict v;
    if (from == 0 && to == 1 && type == MsgType::kAlive) {
      v.drop = true;
      ++dropped;
    }
    return v;
  }
  std::atomic<int> dropped{0};
};

TEST(NetSystem, InterposerDropsAreCountedAndNotDelivered) {
  constexpr int kN = 3;
  DropInterposer drop;  // declared first: node threads call it until ~Cluster
  Cluster c({1, 2, 3});
  c.sys[0]->set_interposer(&drop);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Node 2 hears everyone; node 1 must end one short (node 0's copy dropped).
  EXPECT_TRUE(await_pings(*c.sys[2], *procs[2], kN));
  EXPECT_TRUE(await_pings(*c.sys[1], *procs[1], kN - 1));
  std::this_thread::sleep_for(100ms);  // would-be late arrival window
  EXPECT_EQ(pings_of(*c.sys[1], *procs[1]), kN - 1);
  EXPECT_EQ(drop.dropped.load(), 1);
  EXPECT_EQ(c.sys[0]->net_stats().copies_lost_link, 1u);
}

TEST(NetSystem, RejectsInterposerInstallAfterStart) {
  DropInterposer drop;
  Cluster c({1});
  install_pings(c);
  c.start_all();
  EXPECT_THROW(c.sys[0]->set_interposer(&drop), std::logic_error);
}

// Drops the FIRST transmission attempt of every ALIVE copy on every link.
// Without the ARQ layer the broadcast would arrive nowhere; with it every
// retransmission passes and delivery must be exactly-once anyway.
class DropFirstAttempt : public LinkInterposer {
 public:
  CopyVerdict on_copy(SimTime, ProcIndex from, ProcIndex to, MsgType type) override {
    CopyVerdict v;
    if (type != MsgType::kAlive) return v;
    std::lock_guard lk(mu_);
    v.drop = seen_.insert({from, to}).second;  // newly seen link -> drop
    if (v.drop) ++dropped_;
    return v;
  }
  int dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::pair<ProcIndex, ProcIndex>> seen_;
  int dropped_ = 0;
};

TEST(NetSystem, ReliabilityRecoversDroppedCopiesExactlyOnce) {
  constexpr std::size_t kN = 3;
  // Declared first: the loops judge retransmissions until ~Cluster.
  std::vector<DropFirstAttempt> drops(kN);
  Cluster c({1, 2, 3}, /*seed=*/11, /*batching=*/true, /*metrics=*/nullptr, /*reliable=*/true);
  for (std::size_t i = 0; i < kN; ++i) c.sys[i]->set_interposer(&drops[i]);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], kN, 10s))
        << "node " << i << " did not recover the dropped copies";
  }
  // Exactly-once above the layer: late retransmit crossings are deduped.
  std::this_thread::sleep_for(200ms);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(pings_of(*c.sys[i], *procs[i]), static_cast<int>(kN));
    EXPECT_TRUE(c.sys[i]->reliable());
  }
  // Every first attempt really was dropped (kN outgoing links per node —
  // the loopback self copy is judged like any other) and the ARQ timer
  // re-sent it.
  const RelStats s0 = c.sys[0]->rel_stats();
  EXPECT_EQ(drops[0].dropped(), static_cast<int>(kN));
  EXPECT_GT(s0.retransmits, 0u);
  EXPECT_GE(s0.delivered, static_cast<std::uint64_t>(kN) - 1);
  EXPECT_EQ(c.sys[0]->net_stats().copies_lost_link, static_cast<std::uint64_t>(kN));
}

TEST(NetSystem, GarbageDatagramsCountAsDecodeErrorsNotCrashes) {
  Cluster c({1, 2});
  install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();

  UdpSocket attacker;
  attacker.open(UdpEndpoint{"127.0.0.1", 0});
  const UdpEndpoint victim{"127.0.0.1", c.sys[0]->local_port()};
  const std::uint8_t junk[] = {'H', 'B', 9, 9, 9, 9};  // bad envelope version
  const std::uint8_t noise[] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(attacker.send_to(victim, junk, sizeof junk));
  ASSERT_TRUE(attacker.send_to(victim, noise, sizeof noise));
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return c.sys[0]->net_stats().decode_errors >= 2; }, 5s));
  // The substrate shrugged it off: normal traffic still flows.
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return c.sys[0]->net_stats().copies_delivered >= 1; }, 5s));
}

TEST(NetSystem, UnbatchedModeStillDelivers) {
  constexpr std::size_t kN = 2;
  Cluster c({1, 2}, /*seed=*/3, /*batching=*/false);
  const auto procs = install_pings(c);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(await_pings(*c.sys[i], *procs[i], kN));
}

}  // namespace
}  // namespace hds::net
