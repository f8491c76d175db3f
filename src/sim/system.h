// The event-driven homonymous system: n processes, a broadcast network with
// a pluggable timing model, and a crash schedule.
//
// Processes see only the Env interface (own id, broadcast, timers, local
// clock). Ground-truth accessors — I(Pi), I(Correct), aliveness — exist for
// oracles, checkers and benchmarks only, mirroring the paper's stance that
// Pi is a formalization device the processes do not know.
//
// Sharding (SystemConfig::shards > 1): one run is partitioned across a pool
// of worker threads — processes round-robin by dense index, one scheduler +
// network per shard — using conservative synchronization: the lookahead is
// the timing model's min link delay, and shards advance in lock-step time
// windows [tmin, tmin + lookahead) separated by barriers, so a cross-shard
// send (routed through an SPSC mailbox, drained at the barrier) can never
// land inside the window that produced it. Because every event carries a
// provenance lane (sim/lane.h) and every random draw comes from its
// process's own RNG row, the executed schedule — and with it the trace, the
// metrics, the QoS numbers and the net counters — is byte-identical at any
// shard count, including shards=1, which runs the plain single-queue
// engine with zero added overhead.
//
// Out of scope at shards > 1 (these force or require a single shard):
// chaos interposers/injectors, online monitors, mid-run observers that read
// System state between events. scheduler() and set_interposer() throw.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/multiset.h"
#include "common/rng.h"
#include "common/spsc.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/timing.h"
#include "sim/trace_sink.h"
#include "sim/tracelog.h"

namespace hds {

namespace exp {
class ShardPool;  // exp/pool.h
}

struct CrashPlan {
  SimTime at = 0;
  // When true, a broadcast issued exactly at the crash instant reaches an
  // arbitrary subset of processes ("if a process crashes while broadcasting
  // a message, the message is received by an arbitrary subset").
  bool partial_broadcast = false;
};

struct SystemConfig {
  std::vector<Id> ids;                            // ids[i] = identity of process i; size n
  std::unique_ptr<TimingModel> timing;            // shared by all links
  std::vector<std::optional<CrashPlan>> crashes;  // empty, or size n
  std::uint64_t seed = 1;
  double dying_copy_delivery_prob = 0.5;  // per-copy survival of a dying broadcast
  std::size_t trace_capacity = 0;         // > 0 enables the structured event log
  // Observability sink; null disables metric collection entirely (the
  // network and the node environments then never touch an instrument).
  obs::MetricsRegistry* metrics = nullptr;
  // Worker shards the run is partitioned across (clamped to [1, n]). Any
  // value produces the same bytes; > 1 adds parallelism.
  std::size_t shards = 1;
  // Ring capacity of each cross-shard SPSC mailbox; overflow spills to a
  // mutex-guarded side vector (counted in ShardRunStats, never dropped).
  std::size_t mailbox_capacity = 1024;
};

// Bookkeeping of a sharded run (all zero when shards == 1).
struct ShardRunStats {
  std::uint64_t windows = 0;               // conservative windows executed
  std::uint64_t cross_groups = 0;          // fan-out groups routed via mailboxes
  std::uint64_t lookahead_violations = 0;  // cross arrivals inside their own window; must be 0
  std::uint64_t mailbox_spills = 0;        // pushes that missed the SPSC ring
  std::uint64_t events_executed = 0;       // sum over shard schedulers
};

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();  // defined where NodeEnv is complete

  // Installs the algorithm at node i. Must happen before start().
  void set_process(ProcIndex i, std::unique_ptr<Process> p);

  // Schedules every process's on_start at time 0.
  void start();

  // Installs a fault-plan interposer on the broadcast network (chaos
  // subsystem; null detaches). Install before start(). Requires shards == 1.
  void set_interposer(LinkInterposer* li);

  // Dynamic crash injection — the chaos adversary's effector. The process
  // is alive through the current instant and participates in no event
  // afterwards; ground-truth accessors reflect it immediately. A process
  // already down (or crashing this instant) is left untouched; a *future*
  // planned crash is advanced to now. `why` tags the trace event.
  void inject_crash(ProcIndex i, const std::string& why = {});

  void run_until(SimTime t);
  // Runs until the event queue drains (or the safety caps hit). Returns true
  // if the queue drained.
  bool run_all(std::uint64_t max_events = 50'000'000);

  [[nodiscard]] SimTime now() const { return shards_vec_[0]->sched.now(); }
  [[nodiscard]] std::size_t n() const { return ids_.size(); }
  [[nodiscard]] Id id_of(ProcIndex i) const { return ids_.at(i); }
  [[nodiscard]] const std::vector<Id>& ids() const { return ids_; }

  // Ground truth (checkers/oracles only).
  [[nodiscard]] bool is_correct(ProcIndex i) const { return !crashes_.at(i).has_value(); }
  [[nodiscard]] bool is_alive_at(ProcIndex i, SimTime t) const {
    return !crashes_.at(i) || t <= crashes_.at(i)->at;
  }
  [[nodiscard]] bool is_alive(ProcIndex i) const { return is_alive_at(i, now()); }
  [[nodiscard]] std::vector<ProcIndex> correct_set() const;
  [[nodiscard]] Multiset<Id> correct_ids() const;  // I(Correct)
  [[nodiscard]] Multiset<Id> all_ids() const;      // I(Pi)
  [[nodiscard]] std::size_t alive_count_at(SimTime t) const;

  [[nodiscard]] Process& process(ProcIndex i) { return *procs_.at(i); }
  [[nodiscard]] Env& env(ProcIndex i);
  // The run's scheduler. Only meaningful on an unsharded system (the chaos
  // injector and tests push raw events through it); throws at shards > 1.
  [[nodiscard]] Scheduler& scheduler();
  // Per-shard network statistics merged into one snapshot (the merge is
  // associative and commutative, so any shard count gives the same view).
  [[nodiscard]] NetworkStats net_stats() const;
  [[nodiscard]] const TraceLog& trace() const { return trace_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] ShardRunStats shard_stats() const;
  // Dispatch-loop causal state (obs/causal.h); only advanced while the
  // trace is enabled AND shards == 1 (monitors — the only consumer — run
  // single-shard). Monitors wire it into MonitorConfig::causal so mirrored
  // violations carry the lineage of the event that tripped them.
  [[nodiscard]] const obs::CausalSession& causal_session() const { return causal_obs_; }

 private:
  class NodeEnv;

  // Per-shard engine state: its own scheduler, network facade and trace
  // sink; everything a worker touches without locks.
  struct ShardState {
    Scheduler sched;
    TraceSink sink;
    std::unique_ptr<Network> net;
    explicit ShardState(TraceLog* log) : sink(log) {}
  };

  void deliver(std::size_t shard, ProcIndex to, const std::shared_ptr<const Message>& m);
  void run_windows(SimTime t_limit, std::uint64_t max_events);
  void drain_mailboxes();
  void merge_trace();
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] SpscMailbox<Network::CrossGroup>& mail(std::size_t from_shard,
                                                       std::size_t to_shard) {
    return *mail_[from_shard * shards_ + to_shard];
  }

  std::vector<Id> ids_;
  std::vector<std::optional<CrashPlan>> crashes_;
  double dying_copy_delivery_prob_;
  std::size_t shards_ = 1;
  SimTime lookahead_ = 1;
  // Per-process rows: each is read and advanced only during its owner's
  // dispatches, i.e. only by the shard that owns the process.
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> bcast_seq_;
  std::vector<obs::CausalSession> sessions_;
  obs::CausalSession causal_obs_;  // current-dispatch mirror for monitors
  TraceLog trace_{0};
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_timer_fires_ = nullptr;
  std::unique_ptr<TimingModel> timing_;
  std::vector<std::unique_ptr<ShardState>> shards_vec_;
  std::vector<std::unique_ptr<SpscMailbox<Network::CrossGroup>>> mail_;  // [from * k + to]
  std::unique_ptr<exp::ShardPool> pool_;
  std::vector<Network::CrossGroup> drain_buf_;
  std::vector<TraceSink::Keyed> merge_buf_;
  ShardRunStats run_stats_;
  SimTime last_window_end_ = 0;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<std::unique_ptr<NodeEnv>> envs_;
  bool started_ = false;
};

}  // namespace hds
