#include "chaos/injector.h"

#include <algorithm>
#include <chrono>

#include "net/net_system.h"
#include "sim/system.h"

namespace hds::chaos {

// Forwards every FD output change to the harness's own listener (the online
// monitor), then lets the injector evaluate its trigger clauses. The
// forward-first order matters: the monitor must see the change that caused
// a crash, not a truncated run.
class FaultInjector::ChainListener final : public FdOutputListener {
 public:
  ChainListener(FaultInjector& inj, FdOutputListener* inner) : inj_(inj), inner_(inner) {}

  void on_trusted_change(SimTime at, const Multiset<Id>& h) override {
    if (inner_ != nullptr) inner_->on_trusted_change(at, h);
  }
  void on_homega_change(SimTime at, const HOmegaOut& out) override {
    if (inner_ != nullptr) inner_->on_homega_change(at, out);
    inj_.on_homega_event(at, out);
  }
  void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
    if (inner_ != nullptr) inner_->on_hsigma_change(at, snap);
    inj_.on_hsigma_event(at, snap);
  }
  void on_sigma_change(SimTime at, const Multiset<Id>& t) override {
    if (inner_ != nullptr) inner_->on_sigma_change(at, t);
  }

 private:
  FaultInjector& inj_;
  FdOutputListener* inner_;
};

FaultInjector::FaultInjector(FaultPlan plan, std::vector<Id> ids, std::uint64_t seed)
    : plan_(std::move(plan)),
      ids_(std::move(ids)),
      rng_(seed),
      budget_used_(plan_.clauses.size(), 0),
      leaders_punished_(plan_.clauses.size()),
      quora_punished_(plan_.clauses.size()) {}

FaultInjector::~FaultInjector() = default;

CopyVerdict FaultInjector::on_copy(SimTime now, ProcIndex from, ProcIndex to,
                                   const std::string& /*type*/) {
  CopyVerdict v;
  std::lock_guard lk(mu_);
  for (const FaultClause& c : plan_.clauses) {
    if (!is_link_kind(c.kind) || !c.active_at(now)) continue;
    if (!c.links.matches(from, to, ids_)) continue;
    switch (c.kind) {
      case ClauseKind::kPartition:
        v.drop = true;
        break;
      case ClauseKind::kLoss:
        if (rng_.chance(c.prob)) v.drop = true;
        break;
      case ClauseKind::kDelay:
        v.extra_delay += c.delay;
        break;
      case ClauseKind::kReorder:
        if (c.delay > 0) v.extra_delay += rng_.uniform(0, c.delay);
        break;
      case ClauseKind::kDuplicate:
        if (rng_.chance(c.prob)) {
          v.duplicates += c.count;
          v.duplicate_spread = std::max(v.duplicate_spread, c.delay);
        }
        break;
      default:
        break;
    }
    if (v.drop) break;  // a dropped copy needs no further shaping
  }
  if (v.drop) {
    ++stats_.copies_dropped;
    v.extra_delay = 0;
    v.duplicates = 0;
  } else {
    if (v.extra_delay > 0) ++stats_.copies_delayed;
    stats_.copies_duplicated += v.duplicates;
  }
  return v;
}

void FaultInjector::arm(System& sys) {
  sys.set_interposer(this);
  crash_fn_ = [&sys](ProcIndex i, const std::string& why) { sys.inject_crash(i, why); };
  alive_fn_ = [&sys](ProcIndex i) { return sys.is_alive(i); };
  for (const FaultClause& c : plan_.clauses) {
    if (c.kind != ClauseKind::kCrashAt) continue;
    const ProcIndex victim = c.proc;
    sys.scheduler().at(c.at, [&sys, victim] { sys.inject_crash(victim, "chaos:crash-at"); });
  }
}

void FaultInjector::arm(std::span<const std::unique_ptr<net::NetSystem>> cluster) {
  std::vector<net::NetSystem*> nodes;
  for (const auto& node : cluster) {
    node->set_interposer(this);
    nodes.push_back(node.get());
  }
  crash_fn_ = [nodes](ProcIndex i, const std::string&) { nodes.at(i)->crash(); };
  alive_fn_ = [nodes](ProcIndex i) { return !nodes.at(i)->is_crashed(); };
  std::vector<std::pair<SimTime, ProcIndex>> at_clauses;
  for (const FaultClause& c : plan_.clauses) {
    if (c.kind == ClauseKind::kCrashAt) at_clauses.emplace_back(c.at, c.proc);
  }
  if (at_clauses.empty()) return;
  std::sort(at_clauses.begin(), at_clauses.end());
  // Clause times are milliseconds from arm() on this substrate.
  crash_at_thread_ = std::jthread([this, nodes, at_clauses](std::stop_token st) {
    using Clock = std::chrono::steady_clock;
    const auto epoch = Clock::now();
    for (const auto& [at, victim] : at_clauses) {
      const auto deadline = epoch + std::chrono::milliseconds(at);
      while (Clock::now() < deadline) {
        if (st.stop_requested()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (st.stop_requested()) return;
      nodes.at(victim)->crash();
      std::lock_guard lk(mu_);
      ++stats_.crashes_injected;
      stats_.crash_log.push_back("crash-at victim=" + std::to_string(victim) +
                                 " at=" + std::to_string(at));
    }
  });
}

FdOutputListener* FaultInjector::trigger_listener(ProcIndex /*i*/, FdOutputListener* inner) {
  if (!plan_.has_triggers()) return inner;
  listeners_.push_back(std::make_unique<ChainListener>(*this, inner));
  return listeners_.back().get();
}

ProcIndex FaultInjector::lowest_alive_carrier(Id id) const {
  for (ProcIndex i = 0; i < ids_.size(); ++i) {
    if (ids_[i] == id && alive_fn_ && alive_fn_(i)) return i;
  }
  return static_cast<ProcIndex>(-1);
}

void FaultInjector::crash_now(ProcIndex victim, const std::string& why, SimTime at) {
  if (crash_fn_) crash_fn_(victim, why);
  std::lock_guard lk(mu_);
  ++stats_.crashes_injected;
  stats_.crash_log.push_back(why + " victim=" + std::to_string(victim) +
                             " at=" + std::to_string(at));
}

void FaultInjector::on_homega_event(SimTime at, const HOmegaOut& out) {
  if (out.leader == kBottomId && out.multiplicity == 0) return;
  std::vector<std::pair<ProcIndex, std::string>> todo;
  {
    std::lock_guard lk(mu_);
    for (std::size_t ci = 0; ci < plan_.clauses.size(); ++ci) {
      const FaultClause& c = plan_.clauses[ci];
      if (c.kind != ClauseKind::kCrashOnLeaderChange || !c.active_at(at)) continue;
      if (c.target_id != kBottomId && c.target_id != out.leader) continue;
      if (budget_used_[ci] >= c.count) continue;
      if (!leaders_punished_[ci].insert(out.leader).second) continue;  // already hit
      ++budget_used_[ci];
      todo.emplace_back(0, "chaos:crash-on-leader-change");
    }
  }
  for (auto& [victim, why] : todo) {
    victim = lowest_alive_carrier(out.leader);
    if (victim == static_cast<ProcIndex>(-1)) continue;
    crash_now(victim, why, at);
  }
}

void FaultInjector::on_hsigma_event(SimTime at, const HSigmaSnapshot& snap) {
  if (snap.quora.empty()) return;
  std::vector<std::pair<Id, std::string>> todo;
  {
    std::lock_guard lk(mu_);
    for (std::size_t ci = 0; ci < plan_.clauses.size(); ++ci) {
      const FaultClause& c = plan_.clauses[ci];
      if (c.kind != ClauseKind::kCrashOnQuorum || !c.active_at(at)) continue;
      for (const auto& [label, members] : snap.quora) {
        if (budget_used_[ci] >= c.count) break;
        if (members.empty()) continue;
        if (!quora_punished_[ci].insert(label).second) continue;  // already hit
        ++budget_used_[ci];
        todo.emplace_back(members.min(), "chaos:crash-on-quorum");
      }
    }
  }
  for (const auto& [id, why] : todo) {
    const ProcIndex victim = lowest_alive_carrier(id);
    if (victim == static_cast<ProcIndex>(-1)) continue;
    crash_now(victim, why, at);
  }
}

InjectorStats FaultInjector::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

}  // namespace hds::chaos
