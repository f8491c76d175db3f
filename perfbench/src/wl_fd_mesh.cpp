// fd_mesh: the Fig. 6 detector alone at scale (n = 256, n/2 distinct ids)
// on the sharded engine, with pre-GST loss and the last n/8 processes
// crashing after GST. The engine does nearly all the work.
#include <algorithm>
#include <string>
#include <vector>

#include "consensus/harness.h"
#include "corrupt.h"
#include "fd/impl/ohp_polling.h"
#include "probe.h"
#include "spec/fd_checkers.h"

namespace pb {

namespace {

struct MeshParams {
  std::size_t n = 256;
  std::size_t shards = 4;
  // At n = 256 every poll gathers ~n stale replies before GST, so the
  // adaptive timeout settles near 2n ticks and the mesh stabilizes around
  // tick 850 (one seed in about sixteen needs one more output change, near
  // tick 1060). The run leaves a 150-tick stable window after tick 1250.
  hds::SimTime gst = 40;
  hds::SimTime crash_at = 120;
  hds::SimTime run_for = 1400;
  hds::SimTime stable_window = 150;
  std::uint64_t seed = 1;

  [[nodiscard]] std::vector<hds::Id> ids() const { return hds::ids_homonymous(n, n / 2, seed); }
  [[nodiscard]] std::vector<std::optional<hds::CrashPlan>> crashes() const {
    return hds::crashes_last_k(n, n / 8, crash_at);
  }
  [[nodiscard]] hds::PartialSyncTiming::Params net() const {
    hds::PartialSyncTiming::Params p;
    p.gst = gst;
    p.delta = 3;
    p.pre_gst_loss = 0.2;
    p.pre_gst_max_delay = 4;
    return p;
  }
};

UnitOut run_mesh_unit(const MeshParams& p, Probe* probe) {
  using hds::ProcIndex;
  using hds::SimTime;
  UnitOut out;
  const std::uint64_t w0 = now_ns();

  hds::SystemConfig cfg;
  cfg.ids = p.ids();
  cfg.timing = std::make_unique<hds::PartialSyncTiming>(p.net());
  cfg.crashes = p.crashes();
  cfg.seed = p.seed;
  cfg.shards = p.shards;
  hds::System sys(std::move(cfg));
  std::vector<hds::OHPPolling*> fds(p.n);
  for (ProcIndex i = 0; i < p.n; ++i) {
    auto fd = std::make_unique<hds::OHPPolling>();
    fds[i] = fd.get();
    if (probe != nullptr) {
      sys.set_process(i, std::make_unique<ComponentProbe>(std::move(fd), *probe, i, Layer::kFd,
                                                          /*is_node=*/true));
    } else {
      sys.set_process(i, std::move(fd));
    }
  }
  sys.start();
  const std::uint64_t r0 = now_ns();
  out.setup_s = static_cast<double>(r0 - w0) * 1e-9;

  const std::uint64_t a0 = alloc_count();
  const double c0 = process_cpu_s();
  sys.run_until(p.run_for);
  const std::uint64_t r1 = now_ns();
  out.run_s = static_cast<double>(r1 - r0) * 1e-9;
  out.cpu_s = process_cpu_s() - c0;
  out.allocs = alloc_count() - a0;
  if (probe != nullptr) probe->run_ns += r1 - r0;

  // ---- integrity: the Fig. 6 properties, and the sharded engine's
  // lookahead contract.
  const hds::GroundTruth gt = hds::GroundTruth::from(sys);
  std::vector<const hds::Trajectory<hds::Multiset<hds::Id>>*> trusted;
  std::vector<const hds::Trajectory<hds::HOmegaOut>*> homega;
  for (ProcIndex i = 0; i < p.n; ++i) {
    trusted.push_back(&fds[i]->trusted_trace());
    homega.push_back(&fds[i]->homega_trace());
  }
  hds::Trajectory<hds::Multiset<hds::Id>> corrupted;
  if (g_corrupt) {
    // One correct observer ends the run suspecting everyone.
    corrupted = fds[0]->trusted_trace();
    corrupted.record(p.run_for, hds::Multiset<hds::Id>{});
    trusted[0] = &corrupted;
  }
  std::uint64_t check_ns = 0;
  const hds::CheckResult ohp = timed(probe != nullptr, check_ns, [&] {
    return hds::check_ohp(gt, trusted, p.run_for, p.stable_window);
  });
  const hds::CheckResult hom = timed(probe != nullptr, check_ns, [&] {
    return hds::check_homega(gt, homega, p.run_for, p.stable_window);
  });
  if (probe != nullptr) {
    probe->check_ns += check_ns;
    probe->check_calls += 2;
  }
  const hds::ShardRunStats ss = sys.shard_stats();
  if (!ohp) out.error = "fd_mesh: check_ohp failed: " + ohp.detail;
  if (!hom) out.error = "fd_mesh: check_homega failed: " + hom.detail;
  if (ss.lookahead_violations != 0) out.error = "fd_mesh: sharded run violated its lookahead";

  // ---- crash detection per (crashed process, correct observer) pair: the
  // instant from which the observer's multiplicity of the crashed id equals
  // ground truth for good.
  const hds::Multiset<hds::Id> correct_ids = gt.correct_ids();
  std::uint64_t pairs = 0, undetected = 0, wrong = 0;
  SimTime mesh_whole = -1;
  for (ProcIndex o = 0; o < p.n; ++o) {
    if (!sys.is_correct(o)) continue;
    const auto& pts = trusted[o]->points();
    const hds::Multiset<hds::Id>& fin = pts.back().second;
    if (!(fin == correct_ids)) ++wrong;
    mesh_whole = std::max(mesh_whole, pts.back().first);
    for (ProcIndex c = 0; c < p.n; ++c) {
      if (sys.is_correct(c)) continue;
      ++pairs;
      const hds::Id x = sys.id_of(c);
      const std::size_t truth = correct_ids.multiplicity(x);
      if (fin.multiplicity(x) != truth) {
        ++undetected;
        continue;
      }
      SimTime stable_from = pts.front().first;
      for (std::size_t k = pts.size(); k-- > 1;) {
        if (pts[k - 1].second.multiplicity(x) != truth) {
          stable_from = pts[k].first;
          break;
        }
      }
      const SimTime crash = p.crash_at;
      out.latency.push_back(static_cast<double>(std::max<SimTime>(0, stable_from - crash)));
    }
  }
  out.unavailable.push_back(static_cast<double>(std::max<SimTime>(0, mesh_whole - p.crash_at)));
  out.attempted = pairs + (p.n - p.n / 8);
  out.failed = undetected + wrong;

  const hds::NetworkStats& ns = sys.net_stats();
  out.work = ns.copies_delivered;
  out.broadcasts = ns.broadcasts;
  out.copies = ns.copies_delivered;
  out.bytes_received = ns.bytes_received;
  out.windows = ss.windows;
  out.cross_groups = ss.cross_groups;
  out.mailbox_spills = ss.mailbox_spills;
  out.facts["units"] = 1;

  // What run_fig6 also reports.
  SimTime stabilization = -1;
  for (ProcIndex i = 0; ohp && i < p.n; ++i) {
    if (sys.is_correct(i)) stabilization = std::max(stabilization, trusted[i]->last_change());
  }
  Digest hd;
  hd.add(static_cast<std::uint64_t>(ohp.ok));
  hd.add(static_cast<std::uint64_t>(hom.ok));
  hd.add_i(stabilization);
  hd.add(ns.broadcasts);
  hd.add(ns.copies_delivered);
  out.harness_digest = hd.value();
  Digest d;
  d.add(out.harness_digest);
  d.add(ns.bytes_received);
  d.add_map(ns.broadcasts_by_type);
  d.add(out.latency.size());
  for (const double l : out.latency) d.add_d(l);
  d.add_d(out.unavailable.front());
  d.add(out.failed);
  out.digest = d.value();
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return out;
}

class MeshPlan final : public Plan {
 public:
  MeshPlan(std::uint64_t seed, bool reduced) {
    const std::size_t units = reduced ? 2 : 1;
    for (std::size_t u = 0; u < units; ++u) {
      MeshParams p;
      if (reduced) p.n = 48;
      p.seed = derive_seed(seed, u);
      params_.push_back(p);
    }
  }

  [[nodiscard]] std::size_t units() const override { return params_.size(); }
  [[nodiscard]] std::size_t shards() const override { return params_.front().shards; }
  UnitOut run(std::size_t u, Probe* probe) override { return run_mesh_unit(params_.at(u), probe); }

  void warmup() override {
    MeshParams p = params_.front();
    p.seed = derive_seed(p.seed, 0xAA);
    (void)run_mesh_unit(p, nullptr);
  }

  std::string harness_check() override {
    MeshParams p = params_.front();
    p.n = 48;
    const UnitOut mine = run_mesh_unit(p, nullptr);
    hds::Fig6Params h;
    h.ids = p.ids();
    h.crashes = p.crashes();
    h.net = p.net();
    h.seed = p.seed;
    h.run_for = p.run_for;
    h.stable_window = p.stable_window;
    h.shards = p.shards;
    const hds::Fig6Result r = hds::run_fig6(h);
    Digest hd;
    hd.add(static_cast<std::uint64_t>(r.ohp_check.ok));
    hd.add(static_cast<std::uint64_t>(r.homega_check.ok));
    hd.add_i(r.stabilization_time);
    hd.add(r.broadcasts);
    hd.add(r.copies_delivered);
    if (hd.value() != mine.harness_digest) {
      return "fd_mesh: assembly differs from run_fig6 (checks, stabilization, broadcasts or "
             "copies)";
    }
    return {};
  }

 private:
  std::vector<MeshParams> params_;
};

}  // namespace

std::unique_ptr<Plan> make_fd_mesh(std::uint64_t seed, bool reduced) {
  return std::make_unique<MeshPlan>(seed, reduced);
}

}  // namespace pb
