#include "consensus/harness.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "chaos/injector.h"
#include "common/rng.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "fd/reduce/ap_to_hsigma.h"
#include "fd/reduce/ap_to_ohp.h"
#include "fd/reduce/ohp_to_homega.h"
#include "sim/stacked_process.h"

namespace hds {

// ---------------------------------------------------------------- workloads

std::vector<Id> ids_unique(std::size_t n) {
  std::vector<Id> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i + 1;
  return out;
}

std::vector<Id> ids_anonymous(std::size_t n) { return std::vector<Id>(n, kBottomId); }

std::vector<Id> ids_homonymous(std::size_t n, std::size_t distinct, std::uint64_t seed) {
  if (distinct == 0 || distinct > n) {
    throw std::invalid_argument("ids_homonymous: need 1 <= distinct <= n");
  }
  Rng rng(seed);
  std::vector<Id> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The first `distinct` processes pin one instance of each identifier;
    // the rest collide pseudo-randomly.
    out[i] = i < distinct ? i + 1 : static_cast<Id>(rng.uniform(1, static_cast<Value>(distinct)));
  }
  return out;
}

std::vector<std::optional<CrashPlan>> crashes_none(std::size_t n) {
  return std::vector<std::optional<CrashPlan>>(n);
}

std::vector<std::optional<CrashPlan>> crashes_last_k(std::size_t n, std::size_t k, SimTime at,
                                                     SimTime stagger, bool partial) {
  if (k >= n) throw std::invalid_argument("crashes_last_k: would crash everyone");
  auto out = crashes_none(n);
  for (std::size_t j = 0; j < k; ++j) {
    out[n - 1 - j] = CrashPlan{at + stagger * static_cast<SimTime>(j), partial};
  }
  return out;
}

std::vector<std::optional<SyncCrashPlan>> sync_crashes_last_k(std::size_t n, std::size_t k,
                                                              std::size_t at_step,
                                                              std::size_t stagger, bool partial) {
  if (k >= n) throw std::invalid_argument("sync_crashes_last_k: would crash everyone");
  std::vector<std::optional<SyncCrashPlan>> out(n);
  for (std::size_t j = 0; j < k; ++j) {
    out[n - 1 - j] = SyncCrashPlan{at_step + stagger * j, partial};
  }
  return out;
}

std::vector<Value> distinct_proposals(std::size_t n) {
  std::vector<Value> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<Value>(100 + i);
  return out;
}

GroundTruth ground_truth_of(const std::vector<Id>& ids,
                            const std::vector<std::optional<CrashPlan>>& crashes) {
  GroundTruth gt;
  gt.ids = ids;
  gt.correct.resize(ids.size(), true);
  for (std::size_t i = 0; i < ids.size() && i < crashes.size(); ++i) {
    gt.correct[i] = !crashes[i].has_value();
  }
  return gt;
}

GroundTruth ground_truth_of(const std::vector<Id>& ids,
                            const std::vector<std::optional<SyncCrashPlan>>& crashes) {
  GroundTruth gt;
  gt.ids = ids;
  gt.correct.resize(ids.size(), true);
  for (std::size_t i = 0; i < ids.size() && i < crashes.size(); ++i) {
    gt.correct[i] = !crashes[i].has_value();
  }
  return gt;
}

namespace {

obs::Labels proc_labels(ProcIndex i) { return {{"proc", std::to_string(i)}}; }

std::vector<SimTime> crash_instants(const std::vector<std::optional<CrashPlan>>& crashes,
                                    std::size_t n) {
  std::vector<SimTime> out(n, -1);
  for (std::size_t i = 0; i < n && i < crashes.size(); ++i) {
    if (crashes[i]) out[i] = crashes[i]->at;
  }
  return out;
}

std::vector<SimTime> crash_instants(const std::vector<std::optional<SyncCrashPlan>>& crashes,
                                    std::size_t n) {
  std::vector<SimTime> out(n, -1);
  for (std::size_t i = 0; i < n && i < crashes.size(); ++i) {
    if (crashes[i]) out[i] = static_cast<SimTime>(crashes[i]->at_step);
  }
  return out;
}

// Composes the observer chain for process i: the monitor's listener (if
// any), teed with the streaming window-QoS listener (if any), wrapped by
// the injector's trigger evaluation (if the plan has trigger clauses). Tees
// created along the way land in `tees`, which must outlive the run. Null
// when no observer is present.
FdOutputListener* chained_listener(ProcIndex i, obs::OnlineMonitor* monitor,
                                   obs::WindowQos* window_qos, chaos::FaultInjector* chaos,
                                   std::vector<std::unique_ptr<FdOutputTee>>& tees) {
  FdOutputListener* l = monitor != nullptr ? monitor->listener(i) : nullptr;
  if (window_qos != nullptr) {
    FdOutputListener* w = window_qos->listener(i);
    if (l == nullptr) {
      l = w;
    } else {
      tees.push_back(std::make_unique<FdOutputTee>(l, w));
      l = tees.back().get();
    }
  }
  if (chaos != nullptr) l = chaos->trigger_listener(i, l);
  return l;
}

// Observer seams that assume a single execution thread force the run back
// onto one shard: chaos arms raw scheduler hooks, monitor / window-QoS
// listeners fire from process dispatch without synchronization, and a link
// interposer sits on every send path. Results are bit-identical either way,
// so this only costs the parallelism, never the outcome.
std::size_t effective_shards(std::size_t requested, const void* monitor, const void* window_qos,
                             const void* chaos, const void* interposer = nullptr) {
  if (monitor != nullptr || window_qos != nullptr || chaos != nullptr || interposer != nullptr) {
    return 1;
  }
  return requested == 0 ? 1 : requested;
}

}  // namespace

// ------------------------------------------------------------- FD runs

Fig6Result run_fig6(const Fig6Params& p) {
  std::vector<std::unique_ptr<FdOutputTee>> tees;  // outlives the system
  SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<PartialSyncTiming>(p.net);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.metrics = p.metrics;
  cfg.shards = effective_shards(p.shards, p.monitor, p.window_qos, p.chaos);
  cfg.trace_capacity = p.trace_capacity;
  System sys(std::move(cfg));
  if (p.chaos != nullptr) p.chaos->arm(sys);
  if (p.monitor != nullptr && sys.trace().enabled()) {
    p.monitor->set_causal(&sys.causal_session());
  }
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto fd = std::make_unique<OHPPolling>(p.fd_opts);
    fd->attach_metrics(p.metrics, proc_labels(i));
    if (FdOutputListener* l = chained_listener(i, p.monitor, p.window_qos, p.chaos, tees)) {
      fd->set_output_listener(l);
    }
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(p.run_for);
  if (p.window_qos != nullptr) (void)p.window_qos->stats();  // refresh the gauges

  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<Multiset<Id>>*> trusted;
  std::vector<const Trajectory<HOmegaOut>*> homega;
  Fig6Result res;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto& fd = static_cast<OHPPolling&>(sys.process(i));
    trusted.push_back(&fd.trusted_trace());
    homega.push_back(&fd.homega_trace());
    if (sys.is_correct(i)) {
      res.max_final_timeout = std::max(res.max_final_timeout, fd.timeout());
    }
  }
  res.ohp_check = check_ohp(gt, trusted, p.run_for, p.stable_window);
  res.homega_check = check_homega(gt, homega, p.run_for, p.stable_window);
  if (res.ohp_check) {
    for (ProcIndex i = 0; i < sys.n(); ++i) {
      if (sys.is_correct(i)) {
        res.stabilization_time = std::max(res.stabilization_time, trusted[i]->last_change());
      }
    }
  }
  const NetworkStats net = sys.net_stats();
  res.broadcasts = net.broadcasts;
  res.copies_delivered = net.copies_delivered;
  if (p.metrics != nullptr && res.stabilization_time >= 0) {
    p.metrics->gauge("fd_stabilization_time").set(res.stabilization_time);
  }
  if (p.collect_qos) {
    obs::QosInput in;
    in.gt = gt;
    in.crash_at = crash_instants(p.crashes, sys.n());
    in.gst = p.net.gst;
    in.run_end = p.run_for;
    in.trusted = trusted;
    in.homega = homega;
    res.qos = obs::analyze_qos(in);
    obs::emit_qos(res.qos, p.metrics);
  }
  if (sys.trace().enabled()) {
    res.trace_events = sys.trace().events();
    res.trace_dropped = sys.trace().dropped();
  }
  return res;
}

Fig7Result run_fig7(const Fig7Params& p) {
  std::vector<std::unique_ptr<FdOutputTee>> tees;  // outlives the system
  SyncConfig cfg;
  cfg.ids = p.ids;
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  SyncSystem sys(std::move(cfg));
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto fd = std::make_unique<HSigmaSyncProcess>(sys.id_of(i));
    fd->attach_metrics(p.metrics, proc_labels(i));
    if (FdOutputListener* l = chained_listener(i, p.monitor, p.window_qos, nullptr, tees)) {
      fd->set_output_listener(l);
    }
    sys.set_process(i, std::move(fd));
  }
  sys.run_steps(p.steps);
  if (p.window_qos != nullptr) (void)p.window_qos->stats();  // refresh the gauges

  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
  Fig7Result res;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    const auto& fd = static_cast<HSigmaSyncProcess&>(sys.process(i));
    snaps.push_back(&fd.core().trace());
    if (sys.is_correct(i) && !fd.core().trace().empty()) {
      res.max_quora_stored =
          std::max(res.max_quora_stored, fd.core().trace().final().quora.size());
    }
  }
  res.check = check_hsigma(gt, snaps);
  // First step from which every correct process holds a live quorum. With
  // carriers fixed by the whole trace, the predicate is monotone in time.
  if (res.check) {
    SimTime all_live = -1;
    for (ProcIndex i = 0; i < sys.n(); ++i) {
      if (!sys.is_correct(i)) continue;
      SimTime mine = -1;
      for (const auto& [t, snap] : snaps[i]->points()) {
        // A quorum whose multiset is within I(Correct) suffices here: in
        // Fig. 7, S(m) ⊇ the senders observed, and the liveness pair is
        // exactly (I(Correct), I(Correct)).
        for (const auto& [x, m] : snap.quora) {
          (void)x;
          if (m.is_subset_of(gt.correct_ids())) {
            mine = t;
            break;
          }
        }
        if (mine >= 0) break;
      }
      if (mine < 0) {
        all_live = -1;
        break;
      }
      all_live = std::max(all_live, mine);
    }
    res.liveness_step = all_live;
  }
  res.messages = sys.messages_sent();
  if (p.collect_qos) {
    obs::QosInput in;
    in.gt = gt;
    in.crash_at = crash_instants(p.crashes, sys.n());
    in.gst = 0;  // synchronous: no stabilization delay to forgive
    in.run_end = static_cast<SimTime>(p.steps);
    in.hsigma = snaps;
    res.qos = obs::analyze_qos(in);
    obs::emit_qos(res.qos, p.metrics);
  }
  return res;
}

// --------------------------------------------------------- consensus runs

namespace {

struct RunLoopOut {
  bool all_decided = false;
  SimTime end_time = 0;
};

// Runs the system in slices until every correct process reports a decision
// (or max_time elapses).
RunLoopOut run_until_decided(System& sys, const std::function<bool()>& all_decided,
                             SimTime max_time) {
  const SimTime slice = 250;
  RunLoopOut out;
  while (sys.now() < max_time) {
    sys.run_until(std::min(max_time, sys.now() + slice));
    if (all_decided()) {
      out.all_decided = true;
      break;
    }
  }
  out.end_time = sys.now();
  return out;
}

ConsensusRunResult finish_result(System& sys, const std::vector<Value>& proposals,
                                 const std::vector<DecisionRecord>& decisions,
                                 const RunLoopOut& loop, std::int64_t max_sub_round,
                                 Round max_round) {
  ConsensusRunResult res;
  res.all_correct_decided = loop.all_decided;
  res.proposals = proposals;
  res.decisions = decisions;
  res.max_round = max_round;
  res.max_sub_round = max_sub_round;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    if (decisions[i].decided) {
      res.last_decision_time = std::max(res.last_decision_time, decisions[i].at);
    }
  }
  res.check = check_consensus(GroundTruth::from(sys), proposals, decisions);
  NetworkStats net = sys.net_stats();
  res.broadcasts = net.broadcasts;
  res.copies_delivered = net.copies_delivered;
  res.broadcasts_by_type = std::move(net.broadcasts_by_type);
  res.end_time = loop.end_time;
  if (sys.trace().enabled()) {
    res.trace_head = sys.trace().dump(400);
    res.trace_events = sys.trace().events();
    res.trace_dropped = sys.trace().dropped();
  }
  return res;
}

std::vector<Value> ensure_proposals(const std::vector<Value>& given, std::size_t n) {
  if (given.empty()) return distinct_proposals(n);
  if (given.size() != n) throw std::invalid_argument("proposals size != n");
  return given;
}

}  // namespace

ConsensusRunResult run_fig8_with_oracle(const Fig8OracleParams& p) {
  const std::size_t n = p.ids.size();
  const std::vector<Value> proposals = ensure_proposals(p.proposals, n);

  SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<AsyncTiming>(p.async_min, p.async_max);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.metrics = p.metrics;
  System sys(std::move(cfg));

  OracleHOmega oracle(GroundTruth::from(sys), [&sys] { return sys.now(); }, p.fd_stabilize,
                      p.noise);
  std::vector<MajorityHOmegaConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    MajorityConsensusConfig cons_cfg;
    cons_cfg.n = n;
    cons_cfg.t = p.t_known;
    cons_cfg.proposal = proposals[i];
    cons_cfg.alpha = p.alpha;
    cons_cfg.skip_coordination_phase = p.skip_coordination_phase;
    cons_cfg.guard_poll = p.guard_poll;
    cons_cfg.instance = p.instance;
    auto proc = std::make_unique<MajorityHOmegaConsensus>(cons_cfg, oracle.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  sys.start();
  auto loop = run_until_decided(
      sys,
      [&] {
        for (ProcIndex i = 0; i < n; ++i) {
          if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
        }
        return true;
      },
      p.max_time);

  std::vector<DecisionRecord> decisions(n);
  Round max_round = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) max_round = std::max(max_round, procs[i]->current_round());
  }
  return finish_result(sys, proposals, decisions, loop, 0, max_round);
}

ConsensusRunResult run_fig9_with_oracle(const Fig9OracleParams& p) {
  const std::size_t n = p.ids.size();
  const std::vector<Value> proposals = ensure_proposals(p.proposals, n);

  SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<AsyncTiming>(p.async_min, p.async_max);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.metrics = p.metrics;
  System sys(std::move(cfg));

  auto clock = [&sys] { return sys.now(); };
  OracleHOmega fd1(GroundTruth::from(sys), clock, p.fd1_stabilize, p.noise);
  OracleHSigma fd2(GroundTruth::from(sys), clock, p.fd2_stabilize);
  std::vector<QuorumConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto proc = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], p.guard_poll},
                                                  fd1.handle(i), fd2.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  sys.start();
  auto loop = run_until_decided(
      sys,
      [&] {
        for (ProcIndex i = 0; i < n; ++i) {
          if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
        }
        return true;
      },
      p.max_time);

  std::vector<DecisionRecord> decisions(n);
  Round max_round = 0;
  std::int64_t max_sr = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) {
      max_round = std::max(max_round, procs[i]->current_round());
      max_sr = std::max(max_sr, procs[i]->max_sub_round_seen());
    }
  }
  return finish_result(sys, proposals, decisions, loop, max_sr, max_round);
}

ConsensusRunResult run_fig9_anon_aomega(const Fig9AnonOmegaParams& p) {
  const std::size_t n = p.n;
  const std::vector<Value> proposals = ensure_proposals(p.proposals, n);

  SystemConfig cfg;
  cfg.ids = ids_anonymous(n);
  cfg.timing = std::make_unique<AsyncTiming>(p.async_min, p.async_max);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.metrics = p.metrics;
  System sys(std::move(cfg));

  auto clock = [&sys] { return sys.now(); };
  OracleAOmega fd3(GroundTruth::from(sys), clock, p.aomega_stabilize);
  OracleHSigma fd2(GroundTruth::from(sys), clock, p.fd2_stabilize);
  std::vector<QuorumConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto proc = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4},
                                                  fd3.handle(i), fd2.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  sys.start();
  auto loop = run_until_decided(
      sys,
      [&] {
        for (ProcIndex i = 0; i < n; ++i) {
          if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
        }
        return true;
      },
      p.max_time);

  std::vector<DecisionRecord> decisions(n);
  Round max_round = 0;
  std::int64_t max_sr = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) {
      max_round = std::max(max_round, procs[i]->current_round());
      max_sr = std::max(max_sr, procs[i]->max_sub_round_seen());
    }
  }
  return finish_result(sys, proposals, decisions, loop, max_sr, max_round);
}

ConsensusRunResult run_fig8_full_stack(const Fig8FullStackParams& p) {
  const std::size_t n = p.ids.size();
  const std::vector<Value> proposals = ensure_proposals(p.proposals, n);

  std::vector<std::unique_ptr<FdOutputTee>> tees;  // outlives the system
  SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<PartialSyncTiming>(p.net);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.trace_capacity = p.trace_capacity;
  cfg.metrics = p.metrics;
  cfg.shards = effective_shards(p.shards, p.monitor, p.window_qos, p.chaos, p.link_interposer);
  System sys(std::move(cfg));
  if (p.chaos != nullptr) p.chaos->arm(sys);
  // arm() installed the injector as the interposer; an explicit override
  // (typically a reliability emulator wrapping that same injector) wins.
  if (p.link_interposer != nullptr) sys.set_interposer(p.link_interposer);
  if (p.monitor != nullptr && sys.trace().enabled()) {
    p.monitor->set_causal(&sys.causal_session());
  }

  std::vector<MajorityHOmegaConsensus*> procs(n);
  std::vector<OHPPolling*> fds(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<OHPPolling>());
    fd->attach_metrics(p.metrics, proc_labels(i));
    if (FdOutputListener* l = chained_listener(i, p.monitor, p.window_qos, p.chaos, tees)) {
      fd->set_output_listener(l);
    }
    fds[i] = fd;
    MajorityConsensusConfig cons_cfg;
    cons_cfg.n = n;
    cons_cfg.t = p.t_known;
    cons_cfg.proposal = proposals[i];
    auto cons = std::make_unique<MajorityHOmegaConsensus>(cons_cfg, *fd);
    cons->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = stack->add(std::move(cons));
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  auto loop = run_until_decided(
      sys,
      [&] {
        for (ProcIndex i = 0; i < n; ++i) {
          if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
        }
        return true;
      },
      p.max_time);

  if (p.window_qos != nullptr) (void)p.window_qos->stats();  // refresh the gauges
  std::vector<DecisionRecord> decisions(n);
  Round max_round = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) max_round = std::max(max_round, procs[i]->current_round());
  }
  if (p.metrics != nullptr) {
    // Latest trusted-output change among correct processes — the detector
    // stack's global stabilization instant for this run.
    SimTime stab = -1;
    for (ProcIndex i = 0; i < n; ++i) {
      if (sys.is_correct(i)) stab = std::max(stab, fds[i]->trusted_trace().last_change());
    }
    if (stab >= 0) p.metrics->gauge("fd_stabilization_time").set(stab);
  }
  ConsensusRunResult res = finish_result(sys, proposals, decisions, loop, 0, max_round);
  if (p.collect_qos) {
    obs::QosInput in;
    in.gt = GroundTruth::from(sys);
    in.crash_at = crash_instants(p.crashes, n);
    in.gst = p.net.gst;
    in.run_end = loop.end_time;
    for (ProcIndex i = 0; i < n; ++i) {
      in.trusted.push_back(&fds[i]->trusted_trace());
      in.homega.push_back(&fds[i]->homega_trace());
    }
    res.qos = obs::analyze_qos(in);
    obs::emit_qos(res.qos, p.metrics);
  }
  return res;
}

ConsensusRunResult run_fig9_full_stack(const Fig9FullStackParams& p) {
  const std::size_t n = p.ids.size();
  const std::vector<Value> proposals = ensure_proposals(p.proposals, n);

  std::vector<std::unique_ptr<FdOutputTee>> tees;  // outlives the system
  SystemConfig cfg;
  cfg.ids = p.ids;
  // A synchronous system: every copy delivered within the known bound.
  cfg.timing = std::make_unique<BoundedTiming>(p.delta);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.trace_capacity = p.trace_capacity;
  cfg.metrics = p.metrics;
  cfg.shards = effective_shards(p.shards, p.monitor, p.window_qos, p.chaos);
  System sys(std::move(cfg));
  if (p.chaos != nullptr) p.chaos->arm(sys);
  if (p.monitor != nullptr && sys.trace().enabled()) {
    p.monitor->set_causal(&sys.causal_session());
  }

  // Adapters owned per node; kept alive alongside the system.
  std::vector<std::unique_ptr<ApToOhp>> ap_ohp(n);
  std::vector<std::unique_ptr<ApToHSigma>> ap_hsig(n);
  std::vector<std::unique_ptr<OhpToHOmega>> ohp_homega(n);
  std::vector<QuorumConsensus*> procs(n);
  std::vector<OHPPolling*> fds(n, nullptr);
  std::vector<HSigmaComponent*> hsigs(n, nullptr);

  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    const HOmegaHandle* fd1 = nullptr;
    const HSigmaHandle* fd2 = nullptr;
    if (p.anonymous_ap_stack) {
      // AP ▸ Lemma 2 ▸ Observation 1 gives HΩ; AP ▸ Lemma 3 gives HΣ.
      auto* ap = stack->add(std::make_unique<APComponent>(p.delta + 1));
      ap_ohp[i] = std::make_unique<ApToOhp>(*ap);
      ohp_homega[i] = std::make_unique<OhpToHOmega>(*ap_ohp[i], sys.id_of(i));
      ap_hsig[i] = std::make_unique<ApToHSigma>(*ap);
      fd1 = ohp_homega[i].get();
      fd2 = ap_hsig[i].get();
    } else {
      // Fig. 6 gives HΩ (Corollary 2); the Fig. 7 adapter gives HΣ.
      auto* ohp = stack->add(std::make_unique<OHPPolling>());
      auto* hsig = stack->add(std::make_unique<HSigmaComponent>(p.delta + 1));
      ohp->attach_metrics(p.metrics, proc_labels(i));
      hsig->attach_metrics(p.metrics, proc_labels(i));
      if (FdOutputListener* l = chained_listener(i, p.monitor, p.window_qos, p.chaos, tees)) {
        ohp->set_output_listener(l);
        hsig->set_output_listener(l);
      }
      fds[i] = ohp;
      hsigs[i] = hsig;
      fd1 = ohp;
      fd2 = hsig;
    }
    auto cons = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4}, *fd1,
                                                  *fd2);
    cons->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = stack->add(std::move(cons));
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  auto loop = run_until_decided(
      sys,
      [&] {
        for (ProcIndex i = 0; i < n; ++i) {
          if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
        }
        return true;
      },
      p.max_time);
  if (p.window_qos != nullptr) (void)p.window_qos->stats();  // refresh the gauges

  std::vector<DecisionRecord> decisions(n);
  Round max_round = 0;
  std::int64_t max_sr = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) {
      max_round = std::max(max_round, procs[i]->current_round());
      max_sr = std::max(max_sr, procs[i]->max_sub_round_seen());
    }
  }
  if (p.metrics != nullptr && !p.anonymous_ap_stack) {
    SimTime stab = -1;
    for (ProcIndex i = 0; i < n; ++i) {
      if (sys.is_correct(i)) stab = std::max(stab, fds[i]->trusted_trace().last_change());
    }
    if (stab >= 0) p.metrics->gauge("fd_stabilization_time").set(stab);
  }
  ConsensusRunResult res = finish_result(sys, proposals, decisions, loop, max_sr, max_round);
  if (p.check_hsigma_safety && !p.anonymous_ap_stack) {
    // Perpetual HΣ properties only: they hold at every instant of every
    // admissible run, so they stay meaningful even when a chaos schedule
    // prevents the eventual properties from converging within the run.
    const GroundTruth gt = GroundTruth::from(sys);
    std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
    for (ProcIndex i = 0; i < n; ++i) snaps.push_back(&hsigs[i]->core().trace());
    res.hsigma_safety_check = check_hsigma_safety(gt, snaps);
    if (res.hsigma_safety_check) {
      res.hsigma_safety_check = check_hsigma_monotonicity(snaps);
    }
  }
  if (p.collect_qos && !p.anonymous_ap_stack) {
    obs::QosInput in;
    in.gt = GroundTruth::from(sys);
    in.crash_at = crash_instants(p.crashes, n);
    in.gst = 0;  // synchronous: converge from the start
    in.run_end = loop.end_time;
    for (ProcIndex i = 0; i < n; ++i) {
      in.trusted.push_back(&fds[i]->trusted_trace());
      in.homega.push_back(&fds[i]->homega_trace());
      in.hsigma.push_back(&hsigs[i]->core().trace());
    }
    res.qos = obs::analyze_qos(in);
    obs::emit_qos(res.qos, p.metrics);
  }
  return res;
}

}  // namespace hds
