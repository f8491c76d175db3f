// Figure 7: implementation of HΣ in HSS[...] — homonymous synchronous
// system, unknown membership.
//
// Each synchronous step every process broadcasts IDENT(id(p)) and gathers
// the multiset mset of identifiers received in the step; the pair
// (mset, mset) joins h_quora and mset joins h_labels (a quorum is labelled
// by its own identifier multiset).
//
// Two hosts are provided around the shared core:
//  - HSigmaSyncProcess: the paper-exact lock-step version for SyncSystem.
//  - HSigmaComponent:   the same protocol in the event engine, where the
//    known synchronous bounds are realized as a fixed step length strictly
//    greater than the maximum link latency (so a step collects exactly the
//    IDENTs broadcast in it). This is what lets the Fig. 9 consensus run on
//    top of Fig. 7 in a single engine.
#pragma once

#include <vector>

#include "common/multiset.h"
#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "sim/sync_system.h"

namespace hds {

struct IdentMsg {
  Id id;
  friend bool operator==(const IdentMsg&, const IdentMsg&) = default;
};

// Protocol state shared by both hosts.
class HSigmaCore {
 public:
  // Folds in the identifier multiset observed during one step.
  void on_step_idents(SimTime t, const Multiset<Id>& mset);

  [[nodiscard]] HSigmaSnapshot snapshot() const { return state_; }
  [[nodiscard]] const Trajectory<HSigmaSnapshot>& trace() const { return trace_; }

  // Quorum-size distribution (one observation per newly certified quorum)
  // and total quora stored. Null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  // Fires whenever a step adds a label or a quorum (h_quora/h_labels are
  // monotone, so "added" is the only change). Null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

 private:
  HSigmaSnapshot state_;
  Trajectory<HSigmaSnapshot> trace_;
  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_quora_stored_ = nullptr;
  obs::Histogram* m_quorum_size_ = nullptr;
};

class HSigmaSyncProcess final : public SyncProcess, public HSigmaHandle {
 public:
  explicit HSigmaSyncProcess(Id self_id) : self_id_(self_id) {}

  std::vector<Message> step_send(std::size_t step) override;
  void step_recv(std::size_t step, const std::vector<Message>& delivered) override;

  [[nodiscard]] HSigmaSnapshot snapshot() const override { return core_.snapshot(); }
  [[nodiscard]] const HSigmaCore& core() const { return core_; }
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {}) {
    core_.attach_metrics(reg, labels);
  }
  void set_output_listener(FdOutputListener* l) { core_.set_output_listener(l); }

 private:
  Id self_id_;
  HSigmaCore core_;
};

class HSigmaComponent final : public Process, public HSigmaHandle {
 public:
  // `step_len` must exceed the known link-latency bound of the synchronous
  // system (e.g. BoundedTiming(delta) with step_len = delta + 1).
  explicit HSigmaComponent(SimTime step_len);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] HSigmaSnapshot snapshot() const override { return core_.snapshot(); }
  [[nodiscard]] const HSigmaCore& core() const { return core_; }
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {}) {
    core_.attach_metrics(reg, labels);
  }
  void set_output_listener(FdOutputListener* l) { core_.set_output_listener(l); }

 private:
  void begin_step(Env& env);

  SimTime step_len_;
  TimerId step_timer_ = 0;
  Multiset<Id> pending_;
  HSigmaCore core_;
};

}  // namespace hds
