// The hot-path rework's safety net: the calendar queue, the SBO Action, the
// broadcast fan-out grouping, and the parallel experiment engine must all be
// invisible — a run is a pure function of its config, the calendar queue
// pops in the reference heap's order, and results are bit-identical across
// -j. These tests pin that contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/action.h"
#include "common/rng.h"
#include "consensus/harness.h"
#include "exp/runner.h"
#include "fd/impl/alive_ranker.h"
#include "net/codec.h"
#include "obs/profiler.h"
#include "obs/qos.h"
#include "obs/window_qos.h"
#include "sim/event_queue.h"
#include "sim/lane.h"
#include "sim/system.h"
#include "smr/harness.h"
#include "support/binary_heap_queue.h"

namespace hds {
namespace {

// ------------------------------------------------------------------ Action

TEST(Action, SmallCaptureStaysInline) {
  int hits = 0;
  Action a([&hits] { ++hits; });
  EXPECT_TRUE(a.is_inline());
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(Action, FanoutShapedCaptureStaysInline) {
  // The shape Network::broadcast schedules: {pointer, shared_ptr, vector}.
  auto shared = std::make_shared<int>(7);
  std::vector<std::uint32_t> tos{1, 2, 3};
  int* sink = new int(0);
  Action a([sink, shared, tos = std::move(tos)]() mutable { *sink += static_cast<int>(tos.size()) * *shared; });
  EXPECT_TRUE(a.is_inline());
  a();
  EXPECT_EQ(*sink, 21);
  delete sink;
}

TEST(Action, OversizedCaptureGoesToHeapAndStillRuns) {
  struct Big {
    char pad[96] = {};
    int* out;
  };
  int result = 0;
  Big big;
  big.out = &result;
  Action a([big] { *big.out = 42; });
  EXPECT_FALSE(a.is_inline());
  Action b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(result, 42);
}

TEST(Action, MoveTransfersInlineState) {
  int hits = 0;
  Action a([&hits] { ++hits; });
  Action b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  Action c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

// ------------------------------------------------- queue order equivalence

// Drives a queue through an adversarial schedule — same-tick FIFO runs,
// events scheduling into the current tick, and far-future times past the
// calendar window — the way Scheduler does (external lanes numbered in push
// order), and returns the execution sequence.
template <typename Queue>
std::vector<std::pair<SimTime, int>> drive_schedule(std::uint64_t seed) {
  Queue queue;
  SimTime now = 0;
  std::uint64_t pushes = 0;
  const auto after = [&](SimTime delay, Action fn) {
    queue.push(now + delay, make_lane(LaneClass::kExternal, 0, pushes++), std::move(fn));
  };
  Rng rng(seed);
  std::vector<std::pair<SimTime, int>> order;
  int tag = 0;
  // Seed events: bursts at shared ticks plus far-future outliers (beyond the
  // 1024-slot window, forcing the overflow map and window rebasing).
  for (int k = 0; k < 400; ++k) {
    const SimTime at = rng.chance(0.1) ? rng.uniform(2000, 50'000) : rng.uniform(0, 60);
    const int id = tag++;
    after(at, [&order, &now, &after, &rng, &tag, id] {
      order.emplace_back(now, id);
      // Half the events fan out further work, some into the *current* tick
      // (exercising push-behind-cursor) and some past the window.
      if (order.size() < 3000 && rng.chance(0.5)) {
        const SimTime d = rng.chance(0.2) ? 0 : rng.uniform(1, 1500);
        const int id2 = tag++;
        after(d, [&order, &now, id2] { order.emplace_back(now, id2); });
      }
    });
  }
  while (!queue.empty()) {
    Lane lane = 0;
    Action fn = queue.pop(now, lane);
    fn();
  }
  return order;
}

TEST(QueueEquivalence, CalendarMatchesHeapOrder) {
  for (const std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    const auto cal = drive_schedule<CalendarQueue>(seed);
    const auto heap = drive_schedule<BinaryHeapQueue>(seed);
    ASSERT_GT(cal.size(), 400u);
    EXPECT_EQ(cal, heap) << "divergence at seed " << seed;
  }
}

// ------------------------------------------------------------ golden trace

// Mixed traffic: a codec-registered type (ALIVE, so the byte meter meters
// real frame sizes) plus a codec-less one (a test kind, metered at 0 bytes).
struct Pinger final : Process {
  void on_start(Env& env) override {
    env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
    env.set_timer(3);
  }
  void on_timer(Env& env, TimerId) override {
    env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
    env.set_timer(3);
  }
  void on_message(Env& env, const Message& m) override {
    if (m.type == MsgType::kAlive && env.local_now() % 2 == 0) {
      env.broadcast(make_message(MsgType::kTest0, 0));
    }
  }
};

struct RunFingerprint {
  std::string trace;
  std::string metrics;
  NetworkStats stats;
};

RunFingerprint run_pinger_system(std::size_t trace_capacity) {
  obs::MetricsRegistry reg;
  SystemConfig cfg;
  cfg.ids = {1, 2, 2, 3, 3, 3};
  cfg.crashes.resize(6);
  cfg.crashes[4] = CrashPlan{40, true};
  cfg.crashes[5] = CrashPlan{25, false};
  cfg.timing = std::make_unique<AsyncTiming>(1, 5);
  cfg.seed = 424242;
  cfg.trace_capacity = trace_capacity;
  cfg.metrics = &reg;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 6; ++i) sys.set_process(i, std::make_unique<Pinger>());
  sys.start();
  sys.run_until(120);
  RunFingerprint fp;
  fp.trace = sys.trace().dump(1 << 16);
  fp.metrics = reg.to_json();
  fp.stats = sys.net_stats();
  return fp;
}

TEST(GoldenTrace, CausalTracingOnOffLeavesScheduleMetricsAndStatsIdentical) {
  // Causal stamping must be pure instrumentation: it never touches the RNG,
  // the queue, or the byte meter, so every metric series and every network
  // counter is byte-identical with the trace ring on or off.
  const RunFingerprint on = run_pinger_system(1 << 16);
  const RunFingerprint off = run_pinger_system(0);
  EXPECT_FALSE(on.trace.empty());
  EXPECT_TRUE(off.trace.empty());
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.stats.broadcasts, off.stats.broadcasts);
  EXPECT_EQ(on.stats.copies_sent, off.stats.copies_sent);
  EXPECT_EQ(on.stats.copies_delivered, off.stats.copies_delivered);
  EXPECT_EQ(on.stats.copies_lost_link, off.stats.copies_lost_link);
  EXPECT_EQ(on.stats.copies_lost_dying_sender, off.stats.copies_lost_dying_sender);
  EXPECT_EQ(on.stats.copies_to_dead, off.stats.copies_to_dead);
  EXPECT_EQ(on.stats.bytes_sent, off.stats.bytes_sent);
  EXPECT_EQ(on.stats.bytes_received, off.stats.bytes_received);
  EXPECT_EQ(on.stats.latency_sum, off.stats.latency_sum);
  EXPECT_EQ(on.stats.broadcasts_by_type, off.stats.broadcasts_by_type);
}

TEST(GoldenTrace, Fig6QosJsonIsIdenticalWithTracingOnOrOff) {
  // The full-stack equivalent of the pin above: detector QoS — detection
  // times, mistake intervals, leader settling — must not move when a run is
  // recorded.
  const auto fingerprint = [](std::size_t trace_capacity) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    p.trace_capacity = trace_capacity;
    const Fig6Result r = run_fig6(p);
    return obs::qos_json(r.qos).dump(2);
  };
  EXPECT_EQ(fingerprint(0), fingerprint(1 << 16));
}

TEST(GoldenTrace, MemoizedByteMeterMatchesFullCodecComputation) {
  // One ALIVE broadcast from process 0 reaches all 3 peers with no loss;
  // bytes_sent must be exactly 3 full v1 frames as the per-call
  // encoded_frame_size computes them.
  struct OneShot final : Process {
    void on_start(Env& env) override {
      env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
    }
    void on_message(Env&, const Message&) override {}
  };
  struct Quiet final : Process {
    void on_start(Env&) override {}
    void on_message(Env&, const Message&) override {}
  };
  SystemConfig cfg;
  cfg.ids = {41, 42, 43};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  cfg.seed = 3;
  System sys(std::move(cfg));
  sys.set_process(0, std::make_unique<OneShot>());
  sys.set_process(1, std::make_unique<Quiet>());
  sys.set_process(2, std::make_unique<Quiet>());
  sys.start();
  sys.run_until(10);
  const Message m = make_message(MsgType::kAlive, AliveMsg{41});
  const auto frame = net::encoded_frame_size(net::builtin_codecs(), m, 0, 41);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(sys.net_stats().bytes_sent, 3 * *frame);
  EXPECT_EQ(sys.net_stats().bytes_received, 3 * *frame);
}

TEST(GoldenTrace, HealthPlaneOnOffLeavesScheduleMetricsAndQosIdentical) {
  // The live health plane — window-QoS listeners teed into every detector
  // plus the in-process profiler timing the hot path — is pure observation:
  // no RNG draws, no extra events, no metric the plain run would not have
  // written. A run with the whole plane attached must fingerprint exactly
  // like a bare one.
  const auto fingerprint = [](bool health_plane) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    obs::MetricsRegistry reg;
    p.metrics = &reg;
    std::unique_ptr<obs::WindowQos> wq;
    if (health_plane) {
      obs::WindowQosConfig wc;
      wc.gt = ground_truth_of(p.ids, p.crashes);
      wc.crash_at.assign(6, -1);
      for (std::size_t i = 0; i < p.crashes.size(); ++i) {
        if (p.crashes[i].has_value()) wc.crash_at[i] = p.crashes[i]->at;
      }
      wc.width = 250;
      wc.windows = 8;
      // Deliberately NOT wired into `reg`: the qos_window_* gauges are the
      // plane's own series; the fingerprint compares what the run itself
      // writes, which must not change.
      wq = std::make_unique<obs::WindowQos>(wc);
      p.window_qos = wq.get();
      obs::Profiler::instance().enable();
    }
    const Fig6Result r = run_fig6(p);
    if (health_plane) {
      obs::Profiler::instance().disable();
      // The plane really was live: detector changes landed in the ring and
      // the profiler saw the event loop.
      EXPECT_GT(wq->stats().events, 0u);
      EXPECT_FALSE(obs::Profiler::instance().snapshot().empty());
      obs::Profiler::instance().reset();
    }
    return obs::qos_json(r.qos).dump(2) + "\n" + reg.to_json() + "\n" +
           std::to_string(r.stabilization_time) + ":" + std::to_string(r.broadcasts) + ":" +
           std::to_string(r.copies_delivered);
  };
  EXPECT_EQ(fingerprint(false), fingerprint(true));
}

// ----------------------------------------------- parallel experiment engine

// ----------------------------------------------------------- sharded engine

// The pinger mesh on the conservative-synchronization engine. PerLinkTiming
// with min_delay 1 is the adversarial schedule for sharding: the lookahead
// bound is as tight as it gets (one tick per window), per-link base delays
// make every cross-shard edge different, and jitter keeps messages landing
// on both sides of each barrier.
RunFingerprint run_sharded_pinger(std::size_t shards, std::size_t mailbox_capacity = 1024,
                                  ShardRunStats* stats_out = nullptr) {
  obs::MetricsRegistry reg;
  SystemConfig cfg;
  cfg.ids = {1, 2, 2, 3, 3, 3, 4, 4, 5, 5};
  cfg.crashes.resize(10);
  cfg.crashes[8] = CrashPlan{40, true};
  cfg.crashes[9] = CrashPlan{25, false};
  cfg.timing = std::make_unique<PerLinkTiming>(1, 9, 3, 77);
  cfg.seed = 424242;
  cfg.trace_capacity = 1 << 16;
  cfg.metrics = &reg;
  cfg.shards = shards;
  cfg.mailbox_capacity = mailbox_capacity;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 10; ++i) sys.set_process(i, std::make_unique<Pinger>());
  sys.start();
  sys.run_until(120);
  if (stats_out != nullptr) *stats_out = sys.shard_stats();
  RunFingerprint fp;
  fp.trace = sys.trace().dump(1 << 16);
  fp.metrics = reg.to_json();
  fp.stats = sys.net_stats();
  return fp;
}

TEST(ShardedEngine, GoldenTraceByteIdenticalAcrossShardCounts) {
  // The determinism contract: trace, metrics, and every net counter are
  // byte-identical at shards = 1, 2, 4 and 7 (odd on purpose — uneven
  // round-robin partitions). shards=1 takes the single-threaded fast path,
  // so this also pins sharded == existing engine.
  const RunFingerprint ref = run_sharded_pinger(1);
  ASSERT_FALSE(ref.trace.empty());
  ASSERT_GT(ref.stats.copies_delivered, 0u);
  for (const std::size_t k : {2u, 4u, 7u}) {
    ShardRunStats st;
    const RunFingerprint fp = run_sharded_pinger(k, 1024, &st);
    EXPECT_EQ(ref.trace, fp.trace) << "trace diverged at shards=" << k;
    EXPECT_EQ(ref.metrics, fp.metrics) << "metrics diverged at shards=" << k;
    EXPECT_EQ(ref.stats.broadcasts, fp.stats.broadcasts);
    EXPECT_EQ(ref.stats.copies_sent, fp.stats.copies_sent);
    EXPECT_EQ(ref.stats.copies_delivered, fp.stats.copies_delivered);
    EXPECT_EQ(ref.stats.copies_lost_link, fp.stats.copies_lost_link);
    EXPECT_EQ(ref.stats.copies_lost_dying_sender, fp.stats.copies_lost_dying_sender);
    EXPECT_EQ(ref.stats.copies_to_dead, fp.stats.copies_to_dead);
    EXPECT_EQ(ref.stats.bytes_sent, fp.stats.bytes_sent);
    EXPECT_EQ(ref.stats.bytes_received, fp.stats.bytes_received);
    EXPECT_EQ(ref.stats.latency_sum, fp.stats.latency_sum);
    EXPECT_EQ(ref.stats.latency_max, fp.stats.latency_max);
    EXPECT_EQ(ref.stats.broadcasts_by_type, fp.stats.broadcasts_by_type);
    EXPECT_GT(st.windows, 0u);
    EXPECT_GT(st.cross_groups, 0u) << "schedule never crossed shards at k=" << k;
  }
}

TEST(ShardedEngine, SmrFullStackRunIsBitIdenticalAcrossShardCounts) {
  // The replicated log over the full OHPPolling stack through the harness
  // knob — the deepest consumer of the sharded substrate. The whole
  // fingerprint (hash chains, per-op latencies, broadcast counts by type)
  // must not move with the shard count.
  auto fingerprint = [](std::size_t shards) {
    smr::SmrSimParams p;
    p.n = 3;
    p.t = 1;
    p.full_stack = true;
    p.seed = 11;
    p.run_for = 3000;
    p.max_time = 12'000;
    p.workload.clients = 8;
    p.shards = shards;
    const smr::SmrSimResult r = run_smr_sim(p);
    std::string fp = std::to_string(r.converged) + ":" + std::to_string(r.ops_total) + ":" +
                     std::to_string(r.broadcasts) + ":" + std::to_string(r.end_time);
    for (const auto& [type, count] : r.broadcasts_by_type) {
      fp += ";" + type + "=" + std::to_string(count);
    }
    for (const smr::SmrReplicaStats& st : r.replicas) {
      fp += "|" + std::to_string(st.log_hash) + ":" + std::to_string(st.state_hash);
      for (const SimTime l : st.latencies) fp += "." + std::to_string(l);
    }
    return fp;
  };
  const std::string ref = fingerprint(1);
  EXPECT_EQ(ref.rfind("1:", 0), 0u) << ref;  // converged
  EXPECT_EQ(ref, fingerprint(2));
  EXPECT_EQ(ref, fingerprint(3));
}

TEST(ShardedEngine, WindowAdvancementNeverViolatesLookahead) {
  // Property: a cross-shard group drained at a window boundary must land at
  // or after that boundary — its arrival is >= send + lookahead >= w_end.
  // The engine counts violations instead of asserting, so the property is
  // checkable from outside under every schedule we throw at it.
  for (const std::size_t k : {2u, 3u, 4u, 7u}) {
    ShardRunStats st;
    (void)run_sharded_pinger(k, 1024, &st);
    EXPECT_EQ(st.lookahead_violations, 0u) << "lookahead bound violated at shards=" << k;
  }
}

TEST(ShardedEngine, MailboxSpillPathIsByteIdentical) {
  // A 2-slot mailbox forces the overflow spill path constantly; spilled
  // groups must arrive exactly like ring-carried ones.
  const RunFingerprint ref = run_sharded_pinger(1);
  ShardRunStats st;
  const RunFingerprint tiny = run_sharded_pinger(4, 2, &st);
  EXPECT_GT(st.mailbox_spills, 0u) << "capacity 2 never spilled — not exercising the path";
  EXPECT_EQ(ref.trace, tiny.trace);
  EXPECT_EQ(ref.metrics, tiny.metrics);
  EXPECT_EQ(ref.stats.copies_delivered, tiny.stats.copies_delivered);
  EXPECT_EQ(ref.stats.latency_sum, tiny.stats.latency_sum);
}

TEST(ShardedEngine, Fig6QosJsonIsByteIdenticalAcrossShardCounts) {
  // Full detector stack (OHPPolling over PartialSyncTiming) through the
  // harness knob: the QoS JSON — detection times, mistake intervals, leader
  // settling — is byte-identical at any shard count.
  const auto fingerprint = [](std::size_t shards) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    p.shards = shards;
    const Fig6Result r = run_fig6(p);
    return obs::qos_json(r.qos).dump(2);
  };
  const std::string ref = fingerprint(1);
  EXPECT_EQ(ref, fingerprint(2));
  EXPECT_EQ(ref, fingerprint(4));
}

// A heartbeat mesh sized for the ROADMAP's monitoring-overlay work: n=1024
// simulated processes, all-to-all broadcast rounds. Completing under the
// ctest budget is the point — this scenario was out of reach for scenario
// sizes near n~48 before sharding.
struct Heartbeat final : Process {
  void on_start(Env& env) override {
    env.broadcast(make_message(MsgType::kTest0, 0));
    env.set_timer(64);
  }
  void on_timer(Env& env, TimerId) override {
    env.broadcast(make_message(MsgType::kTest0, 0));
    env.set_timer(64);
  }
  void on_message(Env&, const Message&) override { ++received_; }
  std::uint64_t received_ = 0;
};

TEST(ShardedEngine, ThousandProcessHeartbeatMeshCompletes) {
  constexpr std::size_t kN = 1024;
  SystemConfig cfg;
  for (std::size_t i = 0; i < kN; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(8, 16);
  cfg.seed = 9;
  cfg.shards = 4;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < kN; ++i) sys.set_process(i, std::make_unique<Heartbeat>());
  sys.start();
  sys.run_until(100);  // rounds at t=0 and t=64: ~2M deliveries
  const NetworkStats st = sys.net_stats();
  EXPECT_GE(st.broadcasts, 2 * kN);
  EXPECT_GT(st.copies_delivered, static_cast<std::uint64_t>(kN) * kN);
  EXPECT_EQ(sys.shard_stats().lookahead_violations, 0u);
}

TEST(ExpRunner, CollectPreservesTaskOrderForEveryJobCount) {
  auto square = [](std::size_t i) { return i * i; };
  const auto serial = exp::run_collect(37, 1, square);
  for (const std::size_t jobs : {2ul, 4ul, 8ul, 64ul}) {
    EXPECT_EQ(exp::run_collect(37, jobs, square), serial) << "jobs=" << jobs;
  }
}

TEST(ExpRunner, FullSystemTasksAreThreadCountIndependent) {
  // Each task runs its own System seeded from Rng::derived(seed, index) —
  // the whole point of the engine: -j only changes wall clock, never output.
  auto task = [](std::size_t i) {
    Rng rng = Rng::derived(99, i);
    SystemConfig cfg;
    cfg.ids = {1, 2, 2, 3};
    cfg.timing = std::make_unique<AsyncTiming>(1, 1 + rng.uniform(1, 4));
    cfg.seed = rng.engine()();
    System sys(std::move(cfg));
    for (ProcIndex p = 0; p < 4; ++p) sys.set_process(p, std::make_unique<Pinger>());
    sys.start();
    sys.run_until(80);
    return std::to_string(sys.net_stats().copies_delivered) + ":" +
           std::to_string(sys.net_stats().bytes_sent);
  };
  const auto j1 = exp::run_collect(12, 1, task);
  const auto j8 = exp::run_collect(12, 8, task);
  EXPECT_EQ(j1, j8);
}

TEST(ExpRunner, SmrRunsAreBitIdenticalAcrossJobCounts) {
  // The replicated log is the deepest consumer of the sim substrate (lease
  // fast path + nested Fig. 8 instances + closed-loop workload); its entire
  // fingerprint — applied hash chain, state hash, per-op latencies, every
  // broadcast count by type — must be a pure function of the config, for
  // every -j level of the experiment engine.
  auto task = [](std::size_t i) {
    smr::SmrSimParams p;
    p.n = 3;
    p.t = 1;
    p.seed = 1000 + i;
    p.run_for = 3000;
    p.max_time = 12'000;
    p.workload.clients = 8;
    const smr::SmrSimResult r = run_smr_sim(p);
    std::string fp = std::to_string(r.converged) + ":" + std::to_string(r.ops_total) + ":" +
                     std::to_string(r.broadcasts) + ":" + std::to_string(r.end_time);
    for (const auto& [type, count] : r.broadcasts_by_type) {
      fp += ";" + type + "=" + std::to_string(count);
    }
    for (const smr::SmrReplicaStats& st : r.replicas) {
      fp += "|" + std::to_string(st.log_hash) + ":" + std::to_string(st.state_hash) + ":" +
            std::to_string(st.applied_chain.size());
      for (const std::uint64_t h : st.applied_chain) fp += "," + std::to_string(h);
      for (const SimTime l : st.latencies) fp += "." + std::to_string(l);
    }
    return fp;
  };
  const auto j1 = exp::run_collect(6, 1, task);
  for (const std::size_t jobs : {2ul, 8ul}) {
    EXPECT_EQ(exp::run_collect(6, jobs, task), j1) << "jobs=" << jobs;
  }
  for (const std::string& fp : j1) EXPECT_EQ(fp.rfind("1:", 0), 0u) << fp;  // all converged
}

TEST(ExpRunner, FirstTaskExceptionPropagates) {
  EXPECT_THROW(exp::run_indexed(16, 4,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ExpRunner, DerivedRngIsAPureFunctionOfSeedAndStream) {
  Rng a = Rng::derived(7, 3);
  Rng b = Rng::derived(7, 3);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(a.engine()(), b.engine()());
  // Neighboring streams diverge immediately.
  Rng c = Rng::derived(7, 4);
  EXPECT_NE(Rng::derived(7, 3).engine()(), c.engine()());
}

}  // namespace
}  // namespace hds
