#include "fd/impl/homega_heartbeat.h"

namespace hds {

void HOmegaHeartbeat::attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels) {
  if (reg == nullptr) {
    m_leader_changes_ = nullptr;
    m_lag_adaptations_ = nullptr;
    m_last_change_at_ = nullptr;
    return;
  }
  m_leader_changes_ = &reg->counter("fd_leader_changes_total", labels);
  m_lag_adaptations_ = &reg->counter("fd_timeout_adaptations_total", labels);
  m_last_change_at_ = &reg->gauge("fd_last_output_change_at", labels);
}

void HOmegaHeartbeat::on_start(Env& env) {
  out_ = HOmegaOut{env.self_id(), 1};
  trace_.record(env.local_now(), out_);
  beat(env);
}

void HOmegaHeartbeat::beat(Env& env) {
  ++seq_;
  env.broadcast(make_message(MsgType::kHeartbeat, HeartbeatMsg{env.self_id(), seq_}));
  beat_timer_ = env.set_timer(period_);
}

void HOmegaHeartbeat::on_timer(Env& env, TimerId id) {
  if (id != beat_timer_) return;
  evaluate(env);
  beat(env);
}

void HOmegaHeartbeat::on_message(Env& env, const Message& m) {
  if (m.type != MsgType::kHeartbeat) return;
  const auto* hb = m.as<HeartbeatMsg>();
  if (hb == nullptr) return;
  PerId& rec = heard_[hb->id];
  // A copy older than the settled point means the network outpaced our lag:
  // adapt, exactly as Fig. 6 adapts its timeout on stale replies.
  if (rec.max_seq > 0 && hb->seq <= rec.max_seq - lag_) {
    ++lag_;
    obs::inc(m_lag_adaptations_);
  }
  ++rec.count_by_seq[hb->seq];
  rec.last_heard = env.local_now();
  rec.max_seq = std::max(rec.max_seq, hb->seq);
  // Prune sequences far below any possible settled point.
  while (!rec.count_by_seq.empty() &&
         rec.count_by_seq.begin()->first < rec.max_seq - lag_ - 8) {
    rec.count_by_seq.erase(rec.count_by_seq.begin());
  }
}

void HOmegaHeartbeat::evaluate(Env& env) {
  // Fresh identifiers: heard within (lag_ + 2) periods.
  const SimTime now = env.local_now();
  const SimTime horizon = (lag_ + 2) * period_;
  const PerId* leader = nullptr;
  Id leader_id = env.self_id();
  for (const auto& [id, rec] : heard_) {
    if (now - rec.last_heard > horizon) continue;
    leader = &rec;
    leader_id = id;
    break;  // heard_ is ordered by identifier: first fresh = smallest
  }
  HOmegaOut next{env.self_id(), 1};
  if (leader != nullptr) {
    // Multiplicity from the newest settled sequence (or the nearest older
    // one the pruning kept).
    const std::int64_t settled = leader->max_seq - lag_;
    auto it = leader->count_by_seq.upper_bound(settled);
    if (it != leader->count_by_seq.begin()) {
      --it;
      next = HOmegaOut{leader_id, it->second};
    } else {
      next = HOmegaOut{leader_id, 1};
    }
  }
  if (!(next == out_)) {
    out_ = next;
    trace_.record(now, out_);
    obs::inc(m_leader_changes_);
    obs::set(m_last_change_at_, now);
    if (listener_ != nullptr) listener_->on_homega_change(now, out_);
  }
}

}  // namespace hds
