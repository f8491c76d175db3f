// Theorem 1: building HΣ from a Σ detector in a system with unique
// identifiers —
//   Figure 1 (SigmaToHSigmaLocal): with initial membership knowledge,
//     without any communication;
//   Figure 2 (SigmaToHSigmaBcast): without membership knowledge, learning
//     it through IDENT broadcasts.
//
// In both, the quorum set read from Σ labels itself: h_quora accumulates
// pairs (q, q), and h_labels is every identifier set containing id(p) drawn
// from the (known or learned) membership. The label universe is exponential
// in the number of distinct identifiers — that is the paper's construction,
// not an implementation shortcut — so these transformers are only meant for
// small systems (they refuse to expand beyond kMaxMembershipForLabels ids).
#pragma once

#include <set>

#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace hds {

inline constexpr std::size_t kMaxMembershipForLabels = 16;

struct SigIdentMsg {
  Id id;
};

// Figure 1 — membership known at start; no communication (a local timer
// merely paces the "repeat forever" sampling loop).
class SigmaToHSigmaLocal final : public Process, public HSigmaHandle {
 public:
  SigmaToHSigmaLocal(const SigmaHandle& sigma, Id self_id, std::set<Id> membership,
                     SimTime period = 3);

  void on_start(Env& env) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] HSigmaSnapshot snapshot() const override { return state_; }
  [[nodiscard]] const Trajectory<HSigmaSnapshot>& trace() const { return trace_; }

  // Fires whenever a sample adds a quorum. Null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

 private:
  void sample(SimTime now);

  const SigmaHandle& sigma_;
  SimTime period_;
  HSigmaSnapshot state_;
  Trajectory<HSigmaSnapshot> trace_;
  FdOutputListener* listener_ = nullptr;
};

// Figure 2 — membership unknown; IDENT(id(p)) is broadcast forever and
// h_labels follows the learned membership.
class SigmaToHSigmaBcast final : public Process, public HSigmaHandle {
 public:
  explicit SigmaToHSigmaBcast(const SigmaHandle& sigma, SimTime period = 3);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] HSigmaSnapshot snapshot() const override { return state_; }
  [[nodiscard]] const Trajectory<HSigmaSnapshot>& trace() const { return trace_; }
  [[nodiscard]] const std::set<Id>& mship() const { return mship_; }

  // Per-reduction overhead: SIG_IDENT broadcasts and their approximate wire
  // size, under reduction="sigma_to_hsigma" (merged into `labels`).
  void attach_metrics(obs::MetricsRegistry* reg, obs::Labels labels = {});

  // Fires whenever a sample adds a quorum or new membership grows h_labels.
  // Null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

 private:
  void sample(SimTime now);
  void beat(Env& env);

  const SigmaHandle& sigma_;
  SimTime period_;
  std::set<Id> mship_;
  HSigmaSnapshot state_;
  Trajectory<HSigmaSnapshot> trace_;
  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_msgs_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
};

// Shared helper: all subsets s of `membership` with self in s, as labels.
std::set<Label> labels_of_membership(const std::set<Id>& membership, Id self);

}  // namespace hds
