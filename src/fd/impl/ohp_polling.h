// Figure 6: implementation of ◇HP̄ in HPS[...] — homonymous processes,
// partially synchronous, eventually timely links, unknown membership —
// together with the Corollary 2 extraction of HΩ (leader = smallest
// identifier in h_trusted, with its multiplicity).
//
// Polling rounds: at round r the process broadcasts POLLING(r, id(p)),
// waits timeout_p, then sets h_trusted to one identifier instance per
// P_REPLY(r', r'', id(p), id(q)) received whose round range covers r.
// Replies are broadcast (not unicast) so homonymous pollers share them, and
// each process answers a given poller identifier at most once per round
// range (latest_r bookkeeping), which is what makes the per-round instance
// count equal the number of alive processes. Receiving a stale reply
// (range starting before the current round) grows the timeout, which is the
// adaptation that eventually absorbs the unknown post-GST latency bound.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/multiset.h"
#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace hds {

struct PollingMsg {
  Round r;
  Id id;
  friend bool operator==(const PollingMsg&, const PollingMsg&) = default;
};

struct PollReplyMsg {
  Round lo;     // first round this reply covers
  Round hi;     // last round this reply covers (the poll's round)
  Id to_id;     // the poller identifier this reply answers
  Id from_id;   // id(q) of the replier
  friend bool operator==(const PollReplyMsg&, const PollReplyMsg&) = default;
};

class OHPPolling final : public Process, public OHPHandle, public HOmegaHandle {
 public:
  struct Options {
    SimTime initial_timeout = 1;
    // Ablation switch (not in the paper's algorithm, whose lines 33-34 are
    // the adaptation): freeze the timeout at its initial value. Used by the
    // ablation benchmark to show that without adaptation the detector never
    // stabilizes once the (unknown) delta exceeds the timeout.
    bool adaptive_timeout = true;
  };

  OHPPolling() : OHPPolling(Options{}) {}
  explicit OHPPolling(Options opts) : timeout_(opts.initial_timeout), opts_(opts) {}

  // OHPHandle: current h_trusted multiset.
  [[nodiscard]] Multiset<Id> h_trusted() const override { return h_trusted_; }

  // HOmegaHandle (Corollary 2). Before the first non-empty poll result the
  // process names itself leader with multiplicity 1 — any fixed fallback
  // works, as HΩ constrains only the eventual output.
  [[nodiscard]] HOmegaOut h_omega() const override { return h_omega_; }

  [[nodiscard]] Round round() const { return r_; }
  [[nodiscard]] SimTime timeout() const { return timeout_; }

  [[nodiscard]] const Trajectory<Multiset<Id>>& trusted_trace() const { return trusted_trace_; }
  [[nodiscard]] const Trajectory<HOmegaOut>& homega_trace() const { return homega_trace_; }
  [[nodiscard]] const Trajectory<SimTime>& timeout_trace() const { return timeout_trace_; }

  // Registers this detector's instruments: suspicion churn, leader changes,
  // the replier-quorum size distribution, timeout adaptations, and the
  // instant of the last output change (time-to-stabilization once the run is
  // over). Call before the system starts; null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  // Fires at every real h_trusted / h_omega change (the same sites the
  // change counters use). Call before the system starts; null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

  // Process.
  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

 private:
  struct StoredReply {
    Round lo;
    Round hi;
    Id from_id;
  };

  void begin_round(Env& env);
  void finish_round(Env& env);

  Round r_ = 1;
  SimTime timeout_ = 1;
  Options opts_;
  TimerId poll_timer_ = 0;
  std::set<Id> mship_;                // poller identifiers seen
  std::map<Id, Round> latest_r_;      // latest poll round answered per identifier
  std::vector<StoredReply> replies_;  // replies addressed to our identifier
  Multiset<Id> h_trusted_;
  HOmegaOut h_omega_;
  bool started_ = false;

  Trajectory<Multiset<Id>> trusted_trace_;
  Trajectory<HOmegaOut> homega_trace_;
  Trajectory<SimTime> timeout_trace_;

  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_suspicion_changes_ = nullptr;
  obs::Counter* m_leader_changes_ = nullptr;
  obs::Counter* m_timeout_adaptations_ = nullptr;
  obs::Histogram* m_quorum_size_ = nullptr;
  obs::Gauge* m_last_change_at_ = nullptr;
};

}  // namespace hds
