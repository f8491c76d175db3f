#include "wl_smr.h"

#include <algorithm>
#include <string>
#include <vector>

#include "consensus/harness.h"
#include "corrupt.h"
#include "fd/impl/ohp_polling.h"
#include "probe.h"
#include "sim/stacked_process.h"
#include "smr/replica.h"

namespace pb {

namespace {

std::vector<std::optional<hds::CrashPlan>> leader_crash(const SmrUnitParams& p) {
  std::vector<std::optional<hds::CrashPlan>> c(p.n);
  c[0] = hds::CrashPlan{p.crash_at(), false};  // replica 0 (smallest id) leads first
  return c;
}

hds::PartialSyncTiming::Params net_of(const SmrUnitParams& p) {
  hds::PartialSyncTiming::Params net;
  net.gst = p.gst;
  net.delta = p.delta;
  return net;
}

hds::smr::WorkloadConfig workload_of(const SmrUnitParams& p) {
  hds::smr::WorkloadConfig wl;
  wl.clients = p.clients;
  wl.seed = p.seed;
  return wl;
}

// Digest of the outputs run_smr_sim also reports.
template <typename Replica>
void digest_replica(Digest& d, const Replica& r) {
  d.add_i(r.committed_through);
  d.add_i(r.applied_through);
  d.add(r.log_hash);
  d.add(r.state_hash);
  d.add(r.ops_done);
  d.add(r.batches_committed);
  d.add(r.epochs_started);
  d.add(r.latencies.size());
  for (const hds::SimTime l : r.latencies) d.add_i(l);
}

}  // namespace

hds::smr::SmrSimParams smr_harness_params(const SmrUnitParams& p) {
  hds::smr::SmrSimParams h;
  h.n = p.n;
  h.t = p.t;
  h.crashes = leader_crash(p);
  h.workload = workload_of(p);
  h.run_for = p.run_for;
  h.quiesce_at = p.quiesce_at();
  h.max_time = p.max_time;
  h.full_stack = true;
  h.net = net_of(p);
  h.seed = p.seed;
  return h;
}

UnitOut run_smr_unit(const SmrUnitParams& p, Probe* probe, const NodeWrap& wrap) {
  using hds::ProcIndex;
  using hds::SimTime;
  UnitOut out;
  const std::uint64_t w0 = now_ns();

  // ---- set-up: construction up to start()
  hds::SystemConfig cfg;
  cfg.ids = hds::ids_unique(p.n);  // the lease requires unique ids
  cfg.timing = std::make_unique<hds::PartialSyncTiming>(net_of(p));
  cfg.crashes = leader_crash(p);
  cfg.seed = p.seed;
  hds::System sys(std::move(cfg));
  std::vector<hds::smr::SmrReplica*> reps(p.n);
  for (ProcIndex i = 0; i < p.n; ++i) {
    hds::smr::SmrConfig sc;
    sc.n = p.n;
    sc.t = p.t;
    sc.replica = i;
    auto fd = std::make_unique<hds::OHPPolling>();
    auto rep = std::make_unique<hds::smr::SmrReplica>(sc, *fd, workload_of(p));
    reps[i] = rep.get();
    auto stack = std::make_unique<hds::StackedProcess>();
    std::unique_ptr<hds::Process> node;
    if (probe != nullptr) {
      stack->add(std::make_unique<ComponentProbe>(std::move(fd), *probe, i, Layer::kFd));
      stack->add(std::make_unique<ComponentProbe>(std::move(rep), *probe, i, Layer::kSmr));
      node = std::make_unique<NodeProbe>(std::move(stack), *probe, i);
    } else {
      stack->add(std::move(fd));
      stack->add(std::move(rep));
      node = std::move(stack);
    }
    if (wrap) node = wrap(i, std::move(node));
    sys.set_process(i, std::move(node));
  }
  sys.start();
  const std::uint64_t r0 = now_ns();
  out.setup_s = static_cast<double>(r0 - w0) * 1e-9;

  // ---- run phase
  const std::uint64_t a0 = alloc_count();
  const double c0 = process_cpu_s();
  const SimTime crash = p.crash_at();
  const SimTime quiesce = p.quiesce_at();
  sys.run_until(crash);
  // Sampled from outside, one tick at a time: the first op submitted at or
  // after the crash that completes at a correct replica ends the outage.
  std::vector<std::size_t> seen(p.n, 0);
  for (ProcIndex i = 0; i < p.n; ++i) seen[i] = reps[i]->workload().latencies().size();
  SimTime unavailable = -1;
  while (sys.now() < quiesce && unavailable < 0) {
    sys.run_until(sys.now() + 1);
    const SimTime now = sys.now();
    for (ProcIndex i = 0; i < p.n && unavailable < 0; ++i) {
      if (!sys.is_correct(i)) continue;
      const auto& lat = reps[i]->workload().latencies();
      for (std::size_t k = seen[i]; k < lat.size(); ++k) {
        if (now - lat[k] >= crash) {
          unavailable = now - crash;
          break;
        }
      }
      seen[i] = lat.size();
    }
  }
  sys.run_until(quiesce);
  std::vector<std::uint64_t> done_at_quiesce(p.n);
  for (ProcIndex i = 0; i < p.n; ++i) {
    done_at_quiesce[i] = reps[i]->workload().ops_done();
    reps[i]->stop_workload();
  }
  sys.run_until(p.run_for);
  const auto converged = [&] {
    bool first = true;
    std::int64_t frontier = 0;
    std::uint64_t hash = 0;
    for (ProcIndex i = 0; i < p.n; ++i) {
      if (!sys.is_correct(i)) continue;
      const auto& r = *reps[i];
      if (r.applied_through() != r.committed_through()) return false;
      if (first) {
        frontier = r.applied_through();
        hash = r.kv().log_hash();
        first = false;
      } else if (r.applied_through() != frontier || r.kv().log_hash() != hash) {
        return false;
      }
    }
    return !first;
  };
  const SimTime limit = std::max(p.max_time, p.run_for);
  while (sys.now() < limit && !converged()) sys.run_until(std::min(limit, sys.now() + 250));
  const std::uint64_t r1 = now_ns();
  out.run_s = static_cast<double>(r1 - r0) * 1e-9;
  out.cpu_s = process_cpu_s() - c0;
  out.allocs = alloc_count() - a0;
  if (probe != nullptr) probe->run_ns += r1 - r0;

  // ---- outputs and integrity
  bool conv = converged();
  // Every correct replica must hold an equal log hash (the corruption hook
  // flips the hash read from the first correct follower).
  std::optional<std::uint64_t> hash0;
  for (ProcIndex i = 0; i < p.n; ++i) {
    if (!sys.is_correct(i)) continue;
    const std::uint64_t h = reps[i]->kv().log_hash() ^ (g_corrupt && i == 1 ? 1 : 0);
    if (!hash0) hash0 = h;
    if (h != *hash0) conv = false;
  }
  bool prefix_ok = true;
  for (ProcIndex a = 0; a < p.n && prefix_ok; ++a) {
    for (ProcIndex b = a + 1; b < p.n; ++b) {
      const auto& ca = reps[a]->applied_chain();
      const auto& cb = reps[b]->applied_chain();
      const std::size_t common = std::min(ca.size(), cb.size());
      if (common > 0 && ca[common - 1] != cb[common - 1]) {
        prefix_ok = false;
        break;
      }
    }
  }
  const hds::NetworkStats& ns = sys.net_stats();
  out.broadcasts = ns.broadcasts;
  out.copies = ns.copies_delivered;
  out.bytes_received = ns.bytes_received;
  out.unavailable.push_back(static_cast<double>(unavailable));

  Digest hd;
  hd.add_map(ns.broadcasts_by_type);
  hd.add_i(sys.now());
  hd.add(static_cast<std::uint64_t>(conv));
  hd.add(static_cast<std::uint64_t>(prefix_ok));
  std::uint64_t failed = 0;
  double ops_applied = 0, batches = 0, appends = 0, max_batches = 0, epochs = 0, recov = 0;
  for (ProcIndex i = 0; i < p.n; ++i) {
    const auto& r = *reps[i];
    hds::smr::SmrReplicaStats st;
    st.committed_through = r.committed_through();
    st.applied_through = r.applied_through();
    st.log_hash = r.kv().log_hash();
    st.state_hash = r.kv().state_hash();
    st.ops_done = r.workload().ops_done();
    st.batches_committed = r.batches_committed();
    st.epochs_started = r.epochs_started();
    st.latencies = r.workload().latencies();
    digest_replica(hd, st);
    appends += static_cast<double>(r.appends_sent() + r.repair_appends_sent());
    max_batches = std::max(max_batches, static_cast<double>(r.batches_committed()));
    epochs += static_cast<double>(r.epochs_started());
    recov += static_cast<double>(r.recovery_instances());
    if (!sys.is_correct(i)) continue;
    out.work += st.ops_done;
    // Every client holds exactly one op in flight when the load stops, so
    // each correct replica must complete `clients` ops after quiesce.
    const std::uint64_t after = st.ops_done - done_at_quiesce[i];
    failed += after < p.clients ? p.clients - after : 0;
    ops_applied += static_cast<double>(r.kv().ops_applied());
    batches += static_cast<double>(r.batches_committed());
    for (const SimTime l : st.latencies) out.latency.push_back(static_cast<double>(l));
  }
  out.attempted = out.work + failed;
  out.failed = (conv && prefix_ok) ? failed : out.attempted;
  const std::string seed = " (seed " + std::to_string(p.seed) + ")";
  if (!conv) out.error = "smr: correct replicas did not converge" + seed;
  if (!prefix_ok) out.error = "smr: applied prefixes diverge" + seed;
  if (unavailable < 0) {
    out.error = "smr: no op submitted after the leader crash completed before quiesce" + seed;
  }
  out.facts["smr.ops"] = static_cast<double>(out.work);
  out.facts["smr.ops_applied"] = ops_applied;
  out.facts["smr.batches"] = batches;
  out.facts["smr.appends"] = appends;
  out.facts["smr.max_batches"] = max_batches;
  out.facts["smr.epochs"] = epochs;
  out.facts["smr.recovery_instances"] = recov;
  out.facts["units"] = 1;
  out.harness_digest = hd.value();
  Digest d;
  d.add(out.harness_digest);
  d.add_i(unavailable);
  d.add(out.copies);
  d.add(out.bytes_received);
  d.add(failed);
  out.digest = d.value();
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return out;
}

namespace {

class SmrPlan final : public Plan {
 public:
  SmrPlan(std::uint64_t seed, bool reduced) {
    // Many short runs rather than a few long ones: each contributes one
    // failover, and the outage length is bimodal per failover.
    const std::size_t units = reduced ? 3 : 64;
    for (std::size_t u = 0; u < units; ++u) {
      SmrUnitParams p;
      p.run_for = 1600;
      p.seed = derive_seed(seed, u);
      params_.push_back(p);
    }
  }

  [[nodiscard]] std::size_t units() const override { return params_.size(); }
  UnitOut run(std::size_t u, Probe* probe) override { return run_smr_unit(params_.at(u), probe); }

  void warmup() override {
    SmrUnitParams p = params_.front();
    p.seed = derive_seed(p.seed, 0xAA);
    (void)run_smr_unit(p, nullptr);
  }

  std::string harness_check() override {
    SmrUnitParams p = params_.front();
    p.run_for = 1600;
    const UnitOut mine = run_smr_unit(p, nullptr);
    const hds::smr::SmrSimResult h = hds::smr::run_smr_sim(smr_harness_params(p));
    Digest hd;
    hd.add_map(h.broadcasts_by_type);
    hd.add_i(h.end_time);
    hd.add(static_cast<std::uint64_t>(h.converged));
    hd.add(static_cast<std::uint64_t>(h.prefix_consistent));
    for (const auto& r : h.replicas) digest_replica(hd, r);
    if (hd.value() != mine.harness_digest) {
      return "smr_failover: assembly differs from run_smr_sim (broadcasts_by_type, log_hash, "
             "ops or latencies)";
    }
    return {};
  }

 private:
  std::vector<SmrUnitParams> params_;
};

}  // namespace

std::unique_ptr<Plan> make_smr_failover(std::uint64_t seed, bool reduced) {
  return std::make_unique<SmrPlan>(seed, reduced);
}

}  // namespace pb
