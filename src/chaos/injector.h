// FaultInjector — executes a FaultPlan against either substrate.
//
// The injector is a LinkInterposer (link clauses are applied per copy, on
// the simulator's Network or every NetSystem node's send path) plus a
// set of effectors for the crash clauses: fixed-instant crashes are
// scheduled through the substrate's own mechanism, and event-triggered
// crashes ride the FdOutputListener hooks — the injector chains itself in
// front of whatever listener the harness already installs (the online
// monitor), observes real FD output changes, and crashes a victim when a
// trigger clause matches.
//
// Determinism: all randomness (loss, duplication, jitter) comes from one
// seeded Rng owned by the injector; on the simulator the whole run is
// therefore a pure function of (case config, plan, seed). Thread safety:
// every mutable member is guarded by one mutex, because on an in-process
// NetSystem cluster on_copy and the listener callbacks arrive on the
// nodes' threads. Crash
// effectors are invoked outside the lock (lock order: injector mutex before
// any substrate lock, never the reverse).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_plan.h"
#include "common/label.h"
#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "fd/output_hooks.h"

namespace hds {
class System;
}  // namespace hds

namespace hds::net {
class NetSystem;
}  // namespace hds::net

namespace hds::chaos {

struct InjectorStats {
  std::uint64_t copies_dropped = 0;
  std::uint64_t copies_delayed = 0;
  std::uint64_t copies_duplicated = 0;
  std::uint64_t crashes_injected = 0;
  std::vector<std::string> crash_log;  // "rule victim=<idx> at=<t>"
};

class FaultInjector final : public LinkInterposer {
 public:
  // `ids` is the run's identity vector (needed for label-class selectors and
  // trigger victim selection).
  FaultInjector(FaultPlan plan, std::vector<Id> ids, std::uint64_t seed);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // LinkInterposer: applies every active matching link clause to the copy.
  CopyVerdict on_copy(SimTime now, ProcIndex from, ProcIndex to,
                      const std::string& type) override;

  // Attaches to a substrate: installs the interposer and the crash
  // effectors, and schedules kCrashAt clauses. Call before start(); the
  // injector must outlive the system (declare it before the system).
  void arm(System& sys);
  // In-process NetSystem cluster, node i at cluster[i]: the injector becomes
  // every node's interposer, a crash calls node i's crash(), and kCrashAt
  // clause times are wall-clock milliseconds from arm(), driven by the
  // injector's own thread. Every kCrashAt clause must have fired before the
  // cluster is destroyed (that thread holds the nodes until the injector's
  // destructor joins it).
  void arm(std::span<const std::unique_ptr<net::NetSystem>> cluster);

  // Listener chaining for process i: returns a listener that forwards every
  // event to `inner` (may be null) and then evaluates trigger clauses.
  // Returns `inner` unchanged when the plan has no trigger clauses. The
  // returned listener is owned by the injector.
  FdOutputListener* trigger_listener(ProcIndex i, FdOutputListener* inner);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] InjectorStats stats() const;

 private:
  class ChainListener;

  void on_homega_event(SimTime at, const HOmegaOut& out);
  void on_hsigma_event(SimTime at, const HSigmaSnapshot& snap);
  // Lowest-index alive carrier of `id`; SIZE_MAX when none.
  ProcIndex lowest_alive_carrier(Id id) const;
  void crash_now(ProcIndex victim, const std::string& why, SimTime at);

  FaultPlan plan_;
  std::vector<Id> ids_;

  mutable std::mutex mu_;
  Rng rng_;
  InjectorStats stats_;
  std::vector<std::size_t> budget_used_;        // per clause
  std::vector<std::set<Id>> leaders_punished_;  // per clause (leader triggers)
  std::vector<std::set<Label>> quora_punished_;  // per clause (quorum triggers)
  std::vector<std::unique_ptr<ChainListener>> listeners_;

  // Substrate effectors (set by arm()).
  std::function<void(ProcIndex, const std::string&)> crash_fn_;
  std::function<bool(ProcIndex)> alive_fn_;
  std::jthread crash_at_thread_;  // fires kCrashAt clauses on a NetSystem cluster
};

}  // namespace hds::chaos
