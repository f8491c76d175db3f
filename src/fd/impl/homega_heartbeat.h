// HΩ by sequence-numbered heartbeats — an extension beyond the paper.
//
// Fig. 6 implements ◇HP̄ (and hence HΩ) with a polling/reply scheme costing
// O(n²) messages per round (every poll answered by everybody). If only HΩ
// is needed, a cheaper scheme works: every process broadcasts HB(id, seq)
// each period. Homonyms sharing identifier x all emit (x, s) for the same
// s (their periods are uniform), so the number of (x, s) copies received
// IS the number of alive processes named x at sequence s. The leader is the
// smallest identifier heard recently; its multiplicity is the copy count at
// the newest *settled* sequence (old enough that post-GST stragglers have
// arrived). Lateness adapts the settling lag exactly like Fig. 6's timeout:
// an HB older than the current settled point grows the lag.
//
// Assumption beyond HPS (documented honestly): homonyms advance sequence
// numbers at the same rate — true on the simulator's exact timers; on real
// clocks (NetSystem) drift would eventually skew counts. Fig. 6 needs no
// such assumption, which is why the paper's construction pays the replies.
// Cost: n broadcasts per period, total n² copies — versus Fig. 6's n polls
// *plus up to n² reply broadcasts* per round (n³ copies worst case).
#pragma once

#include <map>

#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace hds {

struct HeartbeatMsg {
  Id id;
  std::int64_t seq;
  friend bool operator==(const HeartbeatMsg&, const HeartbeatMsg&) = default;
};

class HOmegaHeartbeat final : public Process, public HOmegaHandle {
 public:
  static constexpr const char* kMsgType = "HB";

  explicit HOmegaHeartbeat(SimTime period = 4) : period_(period) {}

  [[nodiscard]] HOmegaOut h_omega() const override { return out_; }
  [[nodiscard]] const Trajectory<HOmegaOut>& trace() const { return trace_; }
  [[nodiscard]] std::int64_t lag() const { return lag_; }

  // Leader-change count, lag adaptations, and instant of the last output
  // change. Call before the system starts; null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  // Fires at every real h_omega change. Call before the system starts;
  // null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

 private:
  struct PerId {
    std::map<std::int64_t, std::size_t> count_by_seq;
    SimTime last_heard = 0;
    std::int64_t max_seq = 0;
  };

  void beat(Env& env);
  void evaluate(Env& env);

  SimTime period_;
  std::int64_t seq_ = 0;
  std::int64_t lag_ = 1;  // settled point = max_seq - lag_; grows on lateness
  TimerId beat_timer_ = 0;
  std::map<Id, PerId> heard_;
  HOmegaOut out_;
  Trajectory<HOmegaOut> trace_;

  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_leader_changes_ = nullptr;
  obs::Counter* m_lag_adaptations_ = nullptr;
  obs::Gauge* m_last_change_at_ = nullptr;
};

}  // namespace hds
