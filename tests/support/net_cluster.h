// An in-process NetSystem cluster for tests: one NetSystem per node, each
// with its own UDP socket on an ephemeral loopback port, wired together
// before the peer barrier. Node i carries identifier ids[i] (homonyms
// allowed) and seed `seed + i`; only node 0 reports into `metrics`. The
// destructor stops every node, so anything a node calls into (interposers,
// listeners, oracles) must be declared before the Cluster.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "consensus/majority_homega.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ohp_polling.h"
#include "net/net_system.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "sim/stacked_process.h"

namespace hds::net {

struct Cluster {
  std::vector<std::unique_ptr<NetSystem>> sys;

  explicit Cluster(const std::vector<Id>& ids, std::uint64_t seed = 1, bool batching = true,
                   obs::MetricsRegistry* metrics = nullptr, bool reliable = false) {
    const std::size_t n = ids.size();
    std::vector<NetPeer> peers(n);
    for (std::size_t i = 0; i < n; ++i) peers[i].id = ids[i];
    for (std::size_t i = 0; i < n; ++i) {
      NetConfig cfg;
      cfg.self = i;
      cfg.peers = peers;  // ports resolved below, once every socket is bound
      cfg.seed = seed + i;
      cfg.batching = batching;
      cfg.reliability.enabled = reliable;
      if (i == 0) cfg.metrics = metrics;
      sys.push_back(std::make_unique<NetSystem>(std::move(cfg)));
    }
    for (auto& s : sys) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == s->self()) continue;  // own endpoint was fixed at bind time
        s->set_peer_endpoint(j, UdpEndpoint{"127.0.0.1", sys[j]->local_port()});
      }
    }
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool barrier() {
    bool ok = true;
    for (auto& s : sys) ok = s->await_peers(std::chrono::seconds(5)) && ok;
    return ok;
  }

  void start_all() {
    for (auto& s : sys) s->start();
  }

  ~Cluster() {
    for (auto& s : sys) s->stop();
  }
};

// Broadcasts one ALIVE (a registered wire type, so it crosses the codec
// unchanged) on start and, when period_ms > 0, again on every timer tick.
// Counts received ALIVE copies, their frame bytes and fired timers; the counters belong to the
// node thread, so read them through NetSystem::query.
class PingProcess : public Process {
 public:
  void on_start(Env& env) override {
    if (ping_on_start) ping(env);
    if (period_ms > 0) env.set_timer(period_ms);
  }
  void on_timer(Env& env, TimerId) override {
    ++timers;
    ping(env);
    env.set_timer(period_ms);
  }
  void on_message(Env&, const Message& m) override {
    if (m.type != MsgType::kAlive) return;
    ++pings;
    last_wire_bytes = m.meta_wire_bytes;
    wire_bytes += m.meta_wire_bytes;
  }

  bool ping_on_start = true;
  SimTime period_ms = 0;
  int pings = 0;
  int timers = 0;
  std::size_t last_wire_bytes = 0;
  std::size_t wire_bytes = 0;  // summed over every received ALIVE copy

 private:
  static void ping(Env& env) {
    env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
  }
};

// Installs a PingProcess on every node; returns them in node order.
inline std::vector<PingProcess*> install_pings(Cluster& c) {
  std::vector<PingProcess*> procs;
  for (auto& s : c.sys) {
    auto p = std::make_unique<PingProcess>();
    procs.push_back(p.get());
    s->set_process(std::move(p));
  }
  return procs;
}

inline int pings_of(NetSystem& s, const PingProcess& p) {
  return s.query([&](Process&) { return p.pings; });
}

// Polls until node `s` has counted exactly `want` pings.
inline bool await_pings(NetSystem& s, const PingProcess& p, int want,
                        std::chrono::milliseconds timeout = std::chrono::seconds(5)) {
  return s.wait_for([&] { return pings_of(s, p) == want; }, timeout);
}

// Fig. 6 (polling ◇HP̄ -> HΩ) under Fig. 8 consensus on every node, node i
// proposing base + i. Returns the consensus objects in node order.
inline std::vector<MajorityHOmegaConsensus*> install_fig8(Cluster& c, std::size_t t, Value base) {
  std::vector<MajorityHOmegaConsensus*> cons;
  for (std::size_t i = 0; i < c.sys.size(); ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<OHPPolling>());
    MajorityConsensusConfig ccfg;
    ccfg.n = c.sys.size();
    ccfg.t = t;
    ccfg.proposal = base + static_cast<Value>(i);
    ccfg.guard_poll = 5;
    cons.push_back(stack->add(std::make_unique<MajorityHOmegaConsensus>(ccfg, *fd)));
    c.sys[i]->set_process(std::move(stack));
  }
  return cons;
}

// Waits until each listed node's consensus object has decided; returns the
// decided values in list order, or an empty vector on timeout.
template <typename Consensus>
std::vector<Value> await_decisions(Cluster& c, const std::vector<Consensus*>& cons,
                                   const std::vector<ProcIndex>& nodes,
                                   std::chrono::milliseconds timeout = std::chrono::seconds(30)) {
  std::vector<Value> values;
  for (const ProcIndex i : nodes) {
    NetSystem& s = *c.sys[i];
    const auto decision = [&] { return s.query([&](Process&) { return cons[i]->decision(); }); };
    if (!s.wait_for([&] { return decision().decided; }, timeout, std::chrono::milliseconds(20))) {
      return {};
    }
    values.push_back(decision().value);
  }
  return values;
}

}  // namespace hds::net
