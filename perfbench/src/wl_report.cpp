// report_sweep: the hds_report point set at paper scale, run serially. For
// n in {5, 8} and every number of distinct ids l in 1..n, four stacks:
//   fig6 — Fig. 6 under 20% pre-GST loss, with metrics, QoS, the online
//          monitor and window-QoS on every detector;
//   fig7 — Fig. 7 in the lock-step synchronous system, with the monitor;
//   fig8 — Fig. 6 ▸ Fig. 8 in its model (reliable links, pre-GST delay, no
//          loss), with metrics, QoS and a 2^14 trace ring;
//   fig9 — Fig. 6 + Fig. 7 adapter ▸ Fig. 9 under a known bound, likewise.
// The observers (obs/) and the checkers (spec/) do most of the work here.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "consensus/harness.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "corrupt.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/qos.h"
#include "obs/window_qos.h"
#include "probe.h"
#include "sim/stacked_process.h"
#include "spec/consensus_checkers.h"
#include "spec/fd_checkers.h"

namespace pb {

namespace {

using hds::ProcIndex;
using hds::SimTime;

enum class Stack { kFig6, kFig7, kFig8, kFig9 };
constexpr const char* kStackName[] = {"fig6", "fig7", "fig8", "fig9"};

struct Point {
  Stack stack = Stack::kFig6;
  std::size_t n = 5;
  std::size_t ell = 5;
  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t t() const { return (n - 1) / 2; }
  [[nodiscard]] std::vector<hds::Id> ids() const {
    return ell == n ? hds::ids_unique(n) : hds::ids_homonymous(n, ell, seed);
  }
  [[nodiscard]] std::string label() const {
    return std::string(kStackName[static_cast<int>(stack)]) + " n=" + std::to_string(n) +
           " l=" + std::to_string(ell) + " seed=" + std::to_string(seed);
  }
};


hds::obs::Labels proc_labels(ProcIndex i) { return {{"proc", std::to_string(i)}}; }

std::vector<SimTime> crash_instants(const std::vector<std::optional<hds::CrashPlan>>& c) {
  std::vector<SimTime> out(c.size(), -1);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i]) out[i] = c[i]->at;
  }
  return out;
}

void digest_qos(Digest& d, const hds::obs::QosReport& q) {
  d.add_i(q.detection_time_max);
  d.add_d(q.detection_time_mean);
  d.add(q.undetected);
  d.add(q.mistake_intervals);
  d.add_i(q.mistake_duration_max);
  d.add(q.leader_flaps);
  d.add_i(q.leader_settle_max);
  d.add(static_cast<std::uint64_t>(q.converged));
  d.add_i(q.quorum_margin_min);
  d.add(q.quora_distinct);
  d.add_i(q.liveness_wait_max);
}

void digest_decisions(Digest& d, const std::vector<hds::DecisionRecord>& ds) {
  for (const hds::DecisionRecord& r : ds) {
    d.add(static_cast<std::uint64_t>(r.decided));
    d.add_i(r.at);
    d.add_i(r.value);
    d.add_i(r.round);
  }
}

// Shared bookkeeping of one point: timers, the timed post-run calls, and the
// set-up/run split.
class PointRun {
 public:
  explicit PointRun(Probe* probe) : probe_(probe), w0_(now_ns()) {}

  void started() {
    r0_ = now_ns();
    out.setup_s = static_cast<double>(r0_ - w0_) * 1e-9;
    a0_ = alloc_count();
    c0_ = process_cpu_s();
  }
  template <typename F>
  void engine(F&& f) {
    const std::uint64_t t0 = now_ns();
    f();
    if (probe_ != nullptr) probe_->run_ns += now_ns() - t0;
  }
  template <typename F>
  auto check(F&& f) {
    if (probe_ != nullptr) ++probe_->check_calls;
    std::uint64_t ns = 0;
    auto r = timed(probe_ != nullptr, ns, std::forward<F>(f));
    if (probe_ != nullptr) probe_->check_ns += ns;
    return r;
  }
  hds::obs::QosReport qos(const hds::obs::QosInput& in, hds::obs::MetricsRegistry* reg) {
    if (probe_ != nullptr) ++probe_->qos_calls;
    std::uint64_t ns = 0;
    auto r = timed(probe_ != nullptr, ns, [&] {
      hds::obs::QosReport q = hds::obs::analyze_qos(in);
      hds::obs::emit_qos(q, reg);
      return q;
    });
    if (probe_ != nullptr) probe_->qos_ns += ns;
    return r;
  }
  // Ends the run phase (everything after set-up is the point's work).
  UnitOut finish(const Point& pt, const std::string& failure, Digest& hd) {
    const std::uint64_t r1 = now_ns();
    out.run_s = static_cast<double>(r1 - r0_) * 1e-9;
    out.cpu_s = process_cpu_s() - c0_;
    out.allocs = alloc_count() - a0_;
    out.work = 1;
    out.attempted = 1;
    out.failed = failure.empty() ? 0 : 1;
    if (!failure.empty()) out.error = "report_sweep: " + pt.label() + ": " + failure;
    out.facts["units"] = 1;
    out.harness_digest = hd.value();
    Digest d;
    d.add(out.harness_digest);
    d.add(out.latency.size());
    for (const double l : out.latency) d.add_d(l);
    for (const double u : out.unavailable) d.add_d(u);
    d.add(out.broadcasts);
    d.add(out.copies);
    d.add(out.bytes_received);
    out.digest = d.value();
    out.wall_s = static_cast<double>(now_ns() - w0_) * 1e-9;
    return std::move(out);
  }

  UnitOut out;

 private:
  Probe* probe_;
  std::uint64_t w0_;
  std::uint64_t r0_ = 0;
  std::uint64_t a0_ = 0;
  double c0_ = 0;
};

// The FD listener of process i, behind a ListenerProbe when traced.
hds::FdOutputListener* probed(hds::FdOutputListener* l, Probe* probe, ProcIndex i,
                              std::vector<std::unique_ptr<hds::FdOutputListener>>& keep) {
  if (l == nullptr || probe == nullptr) return l;
  keep.push_back(std::make_unique<ListenerProbe>(*l, *probe, i));
  return keep.back().get();
}

template <typename T>
std::unique_ptr<hds::Process> component(std::unique_ptr<T> c, Probe* probe, ProcIndex i, Layer l) {
  if (probe == nullptr) return c;
  return std::make_unique<ComponentProbe>(std::move(c), *probe, i, l);
}

std::unique_ptr<hds::Process> node(std::unique_ptr<hds::Process> p, Probe* probe, ProcIndex i) {
  if (probe == nullptr) return p;
  return std::make_unique<NodeProbe>(std::move(p), *probe, i);
}

void engine_counts(UnitOut& out, const hds::System& sys) {
  const hds::NetworkStats& ns = sys.net_stats();
  out.broadcasts = ns.broadcasts;
  out.copies = ns.copies_delivered;
  out.bytes_received = ns.bytes_received;
}

// ------------------------------------------------------------------ fig6

hds::Fig6Params fig6_params(const Point& pt) {
  hds::Fig6Params p;
  p.ids = pt.ids();
  p.crashes = hds::crashes_last_k(pt.n, pt.t(), 800, 50);
  p.net.gst = 1000;
  p.net.delta = 3;
  p.net.pre_gst_loss = 0.2;
  p.net.pre_gst_max_delay = 6;
  p.seed = pt.seed;
  p.run_for = 4000;
  p.stable_window = 400;
  p.collect_qos = true;
  return p;
}

hds::obs::MonitorConfig fig6_monitor_cfg(const hds::Fig6Params& p) {
  hds::obs::MonitorConfig mc;
  mc.gt = hds::ground_truth_of(p.ids, p.crashes);
  mc.watch_from = 3000;
  return mc;
}

hds::obs::WindowQosConfig window_cfg(const hds::GroundTruth& gt, std::vector<SimTime> crash_at) {
  hds::obs::WindowQosConfig wc;
  wc.gt = gt;
  wc.crash_at = std::move(crash_at);
  return wc;
}

UnitOut run_fig6_point(const Point& pt, Probe* probe) {
  PointRun pr(probe);
  const hds::Fig6Params p = fig6_params(pt);
  hds::obs::MetricsRegistry reg;
  hds::obs::MonitorConfig mc = fig6_monitor_cfg(p);
  mc.metrics = &reg;
  hds::obs::OnlineMonitor monitor(mc);
  hds::obs::WindowQosConfig wc = window_cfg(mc.gt, crash_instants(p.crashes));
  wc.metrics = &reg;
  hds::obs::WindowQos wq(wc);
  std::vector<std::unique_ptr<hds::FdOutputTee>> tees;
  std::vector<std::unique_ptr<hds::FdOutputListener>> keep;

  hds::SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<hds::PartialSyncTiming>(p.net);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.metrics = &reg;
  hds::System sys(std::move(cfg));
  std::vector<hds::OHPPolling*> fds(pt.n);
  for (ProcIndex i = 0; i < pt.n; ++i) {
    auto fd = std::make_unique<hds::OHPPolling>();
    fd->attach_metrics(&reg, proc_labels(i));
    tees.push_back(std::make_unique<hds::FdOutputTee>(monitor.listener(i), wq.listener(i)));
    fd->set_output_listener(probed(tees.back().get(), probe, i, keep));
    fds[i] = fd.get();
    sys.set_process(i, probe == nullptr
                           ? std::unique_ptr<hds::Process>(std::move(fd))
                           : std::make_unique<ComponentProbe>(std::move(fd), *probe, i,
                                                              Layer::kFd, /*is_node=*/true));
  }
  sys.start();
  pr.started();
  pr.engine([&] { sys.run_until(p.run_for); });
  (void)wq.stats();

  const hds::GroundTruth gt = hds::GroundTruth::from(sys);
  std::vector<const hds::Trajectory<hds::Multiset<hds::Id>>*> trusted;
  std::vector<const hds::Trajectory<hds::HOmegaOut>*> homega;
  for (ProcIndex i = 0; i < pt.n; ++i) {
    trusted.push_back(&fds[i]->trusted_trace());
    homega.push_back(&fds[i]->homega_trace());
  }
  hds::Trajectory<hds::HOmegaOut> corrupted;
  if (g_corrupt) {
    // The last correct process ends the run naming a crashed leader.
    corrupted = fds[0]->homega_trace();
    corrupted.record(p.run_for, hds::HOmegaOut{pt.ids().back() + 1000, 1});
    homega[0] = &corrupted;
  }
  const hds::CheckResult ohp =
      pr.check([&] { return hds::check_ohp(gt, trusted, p.run_for, p.stable_window); });
  const hds::CheckResult hom =
      pr.check([&] { return hds::check_homega(gt, homega, p.run_for, p.stable_window); });
  SimTime stab = -1;
  for (ProcIndex i = 0; ohp && i < pt.n; ++i) {
    if (sys.is_correct(i)) stab = std::max(stab, trusted[i]->last_change());
  }
  hds::obs::QosInput in;
  in.gt = gt;
  in.crash_at = crash_instants(p.crashes);
  in.gst = p.net.gst;
  in.run_end = p.run_for;
  in.trusted = trusted;
  in.homega = homega;
  const hds::obs::QosReport q = pr.qos(in, &reg);
  engine_counts(pr.out, sys);

  std::string failure;
  if (!ohp) failure = "check_ohp: " + ohp.detail;
  if (!hom) failure = "check_homega: " + hom.detail;
  if (monitor.violation_count() != 0) failure = "online monitor reported violations";
  Digest hd;
  hd.add(static_cast<std::uint64_t>(ohp.ok));
  hd.add(static_cast<std::uint64_t>(hom.ok));
  hd.add_i(stab);
  hd.add(pr.out.broadcasts);
  hd.add(pr.out.copies);
  digest_qos(hd, q);
  hd.add(monitor.violation_count());
  hd.add(monitor.warning_count());
  return pr.finish(pt, failure, hd);
}

std::uint64_t fig6_harness_digest(const Point& pt) {
  hds::Fig6Params p = fig6_params(pt);
  hds::obs::MetricsRegistry reg;
  hds::obs::MonitorConfig mc = fig6_monitor_cfg(p);
  mc.metrics = &reg;
  hds::obs::OnlineMonitor monitor(mc);
  hds::obs::WindowQosConfig wc = window_cfg(mc.gt, crash_instants(p.crashes));
  wc.metrics = &reg;
  hds::obs::WindowQos wq(wc);
  p.metrics = &reg;
  p.monitor = &monitor;
  p.window_qos = &wq;
  const hds::Fig6Result r = hds::run_fig6(p);
  Digest hd;
  hd.add(static_cast<std::uint64_t>(r.ohp_check.ok));
  hd.add(static_cast<std::uint64_t>(r.homega_check.ok));
  hd.add_i(r.stabilization_time);
  hd.add(r.broadcasts);
  hd.add(r.copies_delivered);
  digest_qos(hd, r.qos);
  hd.add(monitor.violation_count());
  hd.add(monitor.warning_count());
  return hd.value();
}

// ------------------------------------------------------------------ fig7

hds::Fig7Params fig7_params(const Point& pt) {
  hds::Fig7Params p;
  p.ids = pt.ids();
  p.crashes = hds::sync_crashes_last_k(pt.n, pt.t(), 10, 2);
  p.steps = 30;
  p.seed = pt.seed;
  p.collect_qos = true;
  return p;
}

hds::obs::MonitorConfig fig7_monitor_cfg(const hds::Fig7Params& p) {
  hds::obs::MonitorConfig mc;
  mc.gt = hds::ground_truth_of(p.ids, p.crashes);
  mc.watch_from = static_cast<SimTime>(p.steps);  // only the ungated quorum-safety rules
  return mc;
}

UnitOut run_fig7_point(const Point& pt, Probe* probe) {
  PointRun pr(probe);
  const hds::Fig7Params p = fig7_params(pt);
  hds::obs::MetricsRegistry reg;
  hds::obs::MonitorConfig mc = fig7_monitor_cfg(p);
  mc.metrics = &reg;
  hds::obs::OnlineMonitor monitor(mc);
  std::vector<std::unique_ptr<hds::FdOutputListener>> keep;

  hds::SyncConfig cfg;
  cfg.ids = p.ids;
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  hds::SyncSystem sys(std::move(cfg));
  std::vector<hds::HSigmaSyncProcess*> fds(pt.n);
  for (ProcIndex i = 0; i < pt.n; ++i) {
    auto fd = std::make_unique<hds::HSigmaSyncProcess>(sys.id_of(i));
    fd->attach_metrics(&reg, proc_labels(i));
    fd->set_output_listener(probed(monitor.listener(i), probe, i, keep));
    fds[i] = fd.get();
    if (probe != nullptr) {
      sys.set_process(i, std::make_unique<SyncProbe>(std::move(fd), *probe, i));
    } else {
      sys.set_process(i, std::move(fd));
    }
  }
  pr.started();
  pr.engine([&] { sys.run_steps(p.steps); });

  const hds::GroundTruth gt = hds::GroundTruth::from(sys);
  std::vector<const hds::Trajectory<hds::HSigmaSnapshot>*> snaps;
  std::size_t max_quora = 0;
  for (ProcIndex i = 0; i < pt.n; ++i) {
    snaps.push_back(&fds[i]->core().trace());
    if (sys.is_correct(i) && !fds[i]->core().trace().empty()) {
      max_quora = std::max(max_quora, fds[i]->core().trace().final().quora.size());
    }
  }
  hds::Trajectory<hds::HSigmaSnapshot> corrupted;
  if (g_corrupt) {
    // A correct process ends the run with a quorum of an id nobody carries.
    corrupted = fds[0]->core().trace();
    hds::HSigmaSnapshot bad = corrupted.final();
    const hds::Multiset<hds::Id> ghost{9999};
    bad.quora[hds::Label::of_multiset(ghost)] = ghost;
    corrupted.record(static_cast<SimTime>(p.steps), bad);
    snaps[0] = &corrupted;
  }
  const hds::CheckResult chk = pr.check([&] { return hds::check_hsigma(gt, snaps); });
  hds::obs::QosInput in;
  in.gt = gt;
  in.crash_at.assign(pt.n, -1);
  for (ProcIndex i = 0; i < pt.n; ++i) {
    if (p.crashes[i]) in.crash_at[i] = static_cast<SimTime>(p.crashes[i]->at_step);
  }
  in.gst = 0;
  in.run_end = static_cast<SimTime>(p.steps);
  in.hsigma = snaps;
  const hds::obs::QosReport q = pr.qos(in, &reg);
  pr.out.broadcasts = sys.messages_sent();

  std::string failure;
  if (!chk) failure = "check_hsigma: " + chk.detail;
  if (monitor.violation_count() != 0) failure = "online monitor reported violations";
  Digest hd;
  hd.add(static_cast<std::uint64_t>(chk.ok));
  hd.add(max_quora);
  hd.add(sys.messages_sent());
  digest_qos(hd, q);
  hd.add(monitor.violation_count());
  return pr.finish(pt, failure, hd);
}

std::uint64_t fig7_harness_digest(const Point& pt) {
  hds::Fig7Params p = fig7_params(pt);
  hds::obs::MetricsRegistry reg;
  hds::obs::MonitorConfig mc = fig7_monitor_cfg(p);
  mc.metrics = &reg;
  hds::obs::OnlineMonitor monitor(mc);
  p.metrics = &reg;
  p.monitor = &monitor;
  const hds::Fig7Result r = hds::run_fig7(p);
  Digest hd;
  hd.add(static_cast<std::uint64_t>(r.check.ok));
  hd.add(r.max_quora_stored);
  hd.add(r.messages);
  digest_qos(hd, r.qos);
  hd.add(monitor.violation_count());
  return hd.value();
}

// --------------------------------------------------------- consensus stacks

constexpr std::size_t kTraceRing = std::size_t{1} << 14;

hds::Fig8FullStackParams fig8_params(const Point& pt) {
  hds::Fig8FullStackParams p;
  p.ids = pt.ids();
  p.t_known = pt.t();
  p.crashes = hds::crashes_last_k(pt.n, pt.t(), 300, 30);
  p.net.gst = 500;
  p.net.delta = 3;
  p.net.pre_gst_loss = 0.0;  // Fig. 8 assumes reliable links (in-model)
  p.net.pre_gst_max_delay = 6;
  p.seed = pt.seed;
  p.collect_qos = true;
  p.trace_capacity = kTraceRing;
  return p;
}

hds::Fig9FullStackParams fig9_params(const Point& pt) {
  hds::Fig9FullStackParams p;
  p.ids = pt.ids();
  p.crashes = hds::crashes_last_k(pt.n, pt.t(), 60, 10);
  p.delta = 3;
  p.seed = pt.seed;
  p.collect_qos = true;
  p.trace_capacity = kTraceRing;
  return p;
}

void digest_consensus(Digest& d, const std::vector<hds::DecisionRecord>& decisions, bool check_ok,
                      bool all_decided, hds::Round max_round, SimTime end_time,
                      const std::map<std::string, std::uint64_t>& by_type, std::uint64_t copies,
                      std::size_t trace_events, std::uint64_t trace_dropped,
                      const hds::obs::QosReport& q) {
  digest_decisions(d, decisions);
  d.add(static_cast<std::uint64_t>(check_ok));
  d.add(static_cast<std::uint64_t>(all_decided));
  d.add_i(max_round);
  d.add_i(end_time);
  d.add_map(by_type);
  d.add(copies);
  d.add(trace_events);
  d.add(trace_dropped);
  digest_qos(d, q);
}

// Runs the system in 250-tick slices until every correct process decided,
// exactly as the library harness does.
template <typename Cons>
bool run_until_decided(PointRun& pr, hds::System& sys, const std::vector<Cons*>& procs,
                       SimTime max_time) {
  const auto all = [&] {
    for (ProcIndex i = 0; i < procs.size(); ++i) {
      if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
    }
    return true;
  };
  while (sys.now() < max_time) {
    pr.engine([&] { sys.run_until(std::min(max_time, sys.now() + 250)); });
    if (all()) return true;
  }
  return false;
}

template <typename Cons>
UnitOut finish_consensus(PointRun& pr, const Point& pt, hds::System& sys,
                         const std::vector<Cons*>& procs,
                         const std::vector<hds::OHPPolling*>& fds,
                         const std::vector<hds::HSigmaComponent*>& hsigs,
                         const std::vector<std::optional<hds::CrashPlan>>& crashes, SimTime gst,
                         bool decided, hds::obs::MetricsRegistry& reg) {
  const std::size_t n = pt.n;
  std::vector<hds::DecisionRecord> decisions(n);
  hds::Round max_round = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions[i] = procs[i]->decision();
    if (sys.is_correct(i)) max_round = std::max(max_round, procs[i]->current_round());
  }
  const std::vector<hds::Value> proposals = hds::distinct_proposals(n);
  const hds::GroundTruth gt = hds::GroundTruth::from(sys);
  std::vector<hds::DecisionRecord> judged = decisions;
  if (g_corrupt) judged[0].value ^= 1;  // process 0 never crashes
  const hds::CheckResult chk =
      pr.check([&] { return hds::check_consensus(gt, proposals, judged); });
  hds::obs::QosInput in;
  in.gt = gt;
  in.crash_at = crash_instants(crashes);
  in.gst = gst;
  in.run_end = sys.now();
  for (ProcIndex i = 0; i < n; ++i) {
    in.trusted.push_back(&fds[i]->trusted_trace());
    in.homega.push_back(&fds[i]->homega_trace());
    if (!hsigs.empty()) in.hsigma.push_back(&hsigs[i]->core().trace());
  }
  const hds::obs::QosReport q = pr.qos(in, &reg);
  engine_counts(pr.out, sys);
  const hds::NetworkStats& ns = sys.net_stats();

  SimTime last_decision = -1;
  double decided_count = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    if (!sys.is_correct(i) || !decisions[i].decided) continue;
    pr.out.latency.push_back(static_cast<double>(decisions[i].at));
    last_decision = std::max(last_decision, decisions[i].at);
    ++decided_count;
  }
  // The decision service is unavailable until the last correct process
  // has decided (at these settings decisions precede the crashes).
  if (last_decision >= 0) pr.out.unavailable.push_back(static_cast<double>(last_decision));
  pr.out.facts["consensus.points"] = 1;
  pr.out.facts["consensus.decisions"] = decided_count;
  pr.out.facts["consensus.max_round"] = static_cast<double>(max_round);
  pr.out.facts["obs.trace_events"] = static_cast<double>(sys.trace().events().size());

  std::string failure;
  if (!decided) failure = "not every correct process decided";
  if (!chk) failure = "check_consensus: " + chk.detail;
  Digest hd;
  digest_consensus(hd, decisions, chk.ok, decided, max_round, sys.now(), ns.broadcasts_by_type,
                   ns.copies_delivered, sys.trace().events().size(), sys.trace().dropped(), q);
  return pr.finish(pt, failure, hd);
}

UnitOut run_fig8_point(const Point& pt, Probe* probe) {
  PointRun pr(probe);
  const hds::Fig8FullStackParams p = fig8_params(pt);
  const std::size_t n = pt.n;
  const std::vector<hds::Value> proposals = hds::distinct_proposals(n);
  hds::obs::MetricsRegistry reg;

  hds::SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<hds::PartialSyncTiming>(p.net);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.trace_capacity = p.trace_capacity;
  cfg.metrics = &reg;
  hds::System sys(std::move(cfg));
  std::vector<hds::MajorityHOmegaConsensus*> procs(n);
  std::vector<hds::OHPPolling*> fds(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<hds::StackedProcess>();
    auto fd = std::make_unique<hds::OHPPolling>();
    fd->attach_metrics(&reg, proc_labels(i));
    fds[i] = fd.get();
    hds::MajorityConsensusConfig cc;
    cc.n = n;
    cc.t = p.t_known;
    cc.proposal = proposals[i];
    auto cons = std::make_unique<hds::MajorityHOmegaConsensus>(cc, *fd);
    cons->attach_metrics(&reg, proc_labels(i));
    procs[i] = cons.get();
    stack->add(component(std::move(fd), probe, i, Layer::kFd));
    stack->add(component(std::move(cons), probe, i, Layer::kConsensus));
    sys.set_process(i, node(std::move(stack), probe, i));
  }
  sys.start();
  pr.started();
  const bool decided = run_until_decided(pr, sys, procs, p.max_time);
  return finish_consensus(pr, pt, sys, procs, fds, {}, p.crashes, p.net.gst, decided, reg);
}

UnitOut run_fig9_point(const Point& pt, Probe* probe) {
  PointRun pr(probe);
  const hds::Fig9FullStackParams p = fig9_params(pt);
  const std::size_t n = pt.n;
  const std::vector<hds::Value> proposals = hds::distinct_proposals(n);
  hds::obs::MetricsRegistry reg;

  hds::SystemConfig cfg;
  cfg.ids = p.ids;
  cfg.timing = std::make_unique<hds::BoundedTiming>(p.delta);
  cfg.crashes = p.crashes;
  cfg.seed = p.seed;
  cfg.trace_capacity = p.trace_capacity;
  cfg.metrics = &reg;
  hds::System sys(std::move(cfg));
  std::vector<hds::QuorumConsensus*> procs(n);
  std::vector<hds::OHPPolling*> fds(n);
  std::vector<hds::HSigmaComponent*> hsigs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<hds::StackedProcess>();
    auto ohp = std::make_unique<hds::OHPPolling>();
    auto hsig = std::make_unique<hds::HSigmaComponent>(p.delta + 1);
    ohp->attach_metrics(&reg, proc_labels(i));
    hsig->attach_metrics(&reg, proc_labels(i));
    fds[i] = ohp.get();
    hsigs[i] = hsig.get();
    auto cons = std::make_unique<hds::QuorumConsensus>(
        hds::QuorumConsensusConfig{proposals[i], 4}, *ohp, *hsig);
    cons->attach_metrics(&reg, proc_labels(i));
    procs[i] = cons.get();
    stack->add(component(std::move(ohp), probe, i, Layer::kFd));
    stack->add(component(std::move(hsig), probe, i, Layer::kFd));
    stack->add(component(std::move(cons), probe, i, Layer::kConsensus));
    sys.set_process(i, node(std::move(stack), probe, i));
  }
  sys.start();
  pr.started();
  const bool decided = run_until_decided(pr, sys, procs, p.max_time);
  return finish_consensus(pr, pt, sys, procs, fds, hsigs, p.crashes, 0, decided, reg);
}

std::uint64_t consensus_harness_digest(const Point& pt) {
  hds::obs::MetricsRegistry reg;
  hds::ConsensusRunResult r;
  if (pt.stack == Stack::kFig8) {
    hds::Fig8FullStackParams p = fig8_params(pt);
    p.metrics = &reg;
    r = hds::run_fig8_full_stack(p);
  } else {
    hds::Fig9FullStackParams p = fig9_params(pt);
    p.metrics = &reg;
    r = hds::run_fig9_full_stack(p);
  }
  Digest hd;
  digest_consensus(hd, r.decisions, r.check.ok, r.all_correct_decided, r.max_round, r.end_time,
                   r.broadcasts_by_type, r.copies_delivered, r.trace_events.size(),
                   r.trace_dropped, r.qos);
  return hd.value();
}

UnitOut run_point(const Point& pt, Probe* probe) {
  switch (pt.stack) {
    case Stack::kFig6:
      return run_fig6_point(pt, probe);
    case Stack::kFig7:
      return run_fig7_point(pt, probe);
    case Stack::kFig8:
      return run_fig8_point(pt, probe);
    case Stack::kFig9:
      return run_fig9_point(pt, probe);
  }
  return {};
}

class SweepPlan final : public Plan {
 public:
  SweepPlan(std::uint64_t seed, bool reduced) {
    const std::vector<std::size_t> ns = reduced ? std::vector<std::size_t>{5}
                                                : std::vector<std::size_t>{5, 8};
    // The point set is run `replicas` times per pass, each replica with its
    // own derived seeds, so one pass averages over several id layouts.
    const std::size_t replicas = reduced ? 1 : 8;
    std::uint64_t k = 0;
    for (std::size_t r = 0; r < replicas; ++r) {
      for (const std::size_t n : ns) {
        for (std::size_t ell = 1; ell <= n; ++ell) {
          if (reduced && ell != 1 && ell != 3 && ell != n) continue;
          for (const Stack s : {Stack::kFig6, Stack::kFig7, Stack::kFig8, Stack::kFig9}) {
            points_.push_back(Point{s, n, ell, derive_seed(seed, k++)});
          }
        }
      }
    }
  }

  [[nodiscard]] std::size_t units() const override { return points_.size(); }
  UnitOut run(std::size_t u, Probe* probe) override { return run_point(points_.at(u), probe); }

  void warmup() override {
    for (const Stack s : {Stack::kFig6, Stack::kFig7, Stack::kFig8, Stack::kFig9}) {
      Point pt{s, 5, 3, derive_seed(points_.front().seed, 0xAA)};
      const UnitOut out = run_point(pt, nullptr);
      if (!out.error.empty()) throw std::runtime_error(out.error);
    }
  }

  std::string harness_check() override {
    // One point per stack, at a homonymous setting.
    for (const Stack s : {Stack::kFig6, Stack::kFig7, Stack::kFig8, Stack::kFig9}) {
      const Point pt{s, 5, 3, points_.front().seed};
      const UnitOut mine = run_point(pt, nullptr);
      std::uint64_t theirs = 0;
      switch (s) {
        case Stack::kFig6:
          theirs = fig6_harness_digest(pt);
          break;
        case Stack::kFig7:
          theirs = fig7_harness_digest(pt);
          break;
        default:
          theirs = consensus_harness_digest(pt);
          break;
      }
      if (theirs != mine.harness_digest) {
        return "report_sweep: assembly differs from the library harness at " + pt.label();
      }
    }
    return {};
  }

 private:
  std::vector<Point> points_;
};

}  // namespace

std::unique_ptr<Plan> make_report_sweep(std::uint64_t seed, bool reduced) {
  return std::make_unique<SweepPlan>(seed, reduced);
}

}  // namespace pb
