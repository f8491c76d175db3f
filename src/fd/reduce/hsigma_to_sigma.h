// Figure 4 (Theorem 2): building Σ from an HΣ detector in an asynchronous
// system with unique identifiers and unknown membership.
//
// Every process broadcasts LABELS(id(p), D.h_labels) forever, accumulating
// idents[x] = identifiers known to carry label x. Whenever some pair
// (x, m) of D.h_quora is fully explained (m ⊆ idents[x]), the candidate
// multisets are ranked by a class-S detector (Fig. 3) and trusted is set to
// the candidate whose worst-ranked identifier is best — eventually a set of
// correct processes only.
#pragma once

#include <map>
#include <set>

#include "common/multiset.h"
#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace hds {

struct LabelsMsg {
  Id id;
  std::set<Label> labels;
};

class HSigmaToSigma final : public Process, public SigmaHandle {
 public:
  // `hsigma` is the D ∈ HΣ being transformed; `ranker` the auxiliary class-S
  // detector X (typically an AliveRanker stacked on the same node).
  HSigmaToSigma(const HSigmaHandle& hsigma, const RankerHandle& ranker, SimTime period = 3);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  // SigmaHandle. Empty until the first candidate quorum is explained
  // (Σ's properties are evaluated from the first assignment on).
  [[nodiscard]] Multiset<Id> trusted() const override { return trusted_; }

  [[nodiscard]] const Trajectory<Multiset<Id>>& trace() const { return trace_; }

  // Per-reduction overhead: LABELS broadcasts and their approximate wire
  // size, under reduction="hsigma_to_sigma" (merged into `labels`).
  void attach_metrics(obs::MetricsRegistry* reg, obs::Labels labels = {});

  // Fires at every real `trusted` change. Null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

 private:
  void tick(Env& env);

  const HSigmaHandle& hsigma_;
  const RankerHandle& ranker_;
  SimTime period_;
  std::map<Label, std::set<Id>> idents_;
  Multiset<Id> trusted_;
  Trajectory<Multiset<Id>> trace_;
  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_msgs_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
};

}  // namespace hds
