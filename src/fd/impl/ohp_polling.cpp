#include "fd/impl/ohp_polling.h"

#include <algorithm>

namespace hds {

void OHPPolling::attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels) {
  if (reg == nullptr) {
    m_suspicion_changes_ = nullptr;
    m_leader_changes_ = nullptr;
    m_timeout_adaptations_ = nullptr;
    m_quorum_size_ = nullptr;
    m_last_change_at_ = nullptr;
    return;
  }
  m_suspicion_changes_ = &reg->counter("fd_suspicion_changes_total", labels);
  m_leader_changes_ = &reg->counter("fd_leader_changes_total", labels);
  m_timeout_adaptations_ = &reg->counter("fd_timeout_adaptations_total", labels);
  m_quorum_size_ = &reg->histogram("fd_quorum_size", obs::size_buckets(), labels);
  m_last_change_at_ = &reg->gauge("fd_last_output_change_at", labels);
}

void OHPPolling::on_start(Env& env) {
  started_ = true;
  h_omega_ = HOmegaOut{env.self_id(), 1};
  homega_trace_.record(env.local_now(), h_omega_);
  trusted_trace_.record(env.local_now(), h_trusted_);
  timeout_trace_.record(env.local_now(), timeout_);
  begin_round(env);
}

void OHPPolling::begin_round(Env& env) {
  env.broadcast(make_message(MsgType::kPolling, PollingMsg{r_, env.self_id()}));
  poll_timer_ = env.set_timer(timeout_);
}

void OHPPolling::on_timer(Env& env, TimerId id) {
  if (id != poll_timer_) return;
  finish_round(env);
  begin_round(env);
}

void OHPPolling::finish_round(Env& env) {
  // Lines 12-17: one identifier instance per stored reply covering r_.
  Multiset<Id> tmp;
  for (const StoredReply& rep : replies_) {
    if (rep.lo <= r_ && r_ <= rep.hi) tmp.insert(rep.from_id);
  }
  if (tmp != h_trusted_) {
    obs::inc(m_suspicion_changes_);
    obs::set(m_last_change_at_, env.local_now());
    if (listener_ != nullptr) listener_->on_trusted_change(env.local_now(), tmp);
  }
  h_trusted_ = tmp;
  trusted_trace_.record(env.local_now(), h_trusted_);
  obs::observe(m_quorum_size_, static_cast<std::int64_t>(h_trusted_.size()));
  // Corollary 2: HΩ from the smallest trusted identifier.
  HOmegaOut next;
  if (!h_trusted_.empty()) {
    next = HOmegaOut{h_trusted_.min(), h_trusted_.multiplicity(h_trusted_.min())};
  } else {
    next = HOmegaOut{env.self_id(), 1};
  }
  if (!(next == h_omega_)) {
    obs::inc(m_leader_changes_);
    obs::set(m_last_change_at_, env.local_now());
    if (listener_ != nullptr) listener_->on_homega_change(env.local_now(), next);
  }
  h_omega_ = next;
  homega_trace_.record(env.local_now(), h_omega_);
  ++r_;
  // Replies whose range ended before the (monotonically increasing) current
  // round can never match again.
  std::erase_if(replies_, [this](const StoredReply& rep) { return rep.hi < r_; });
}

void OHPPolling::on_message(Env& env, const Message& m) {
  if (m.type == MsgType::kPolling) {
    const auto* poll = m.as<PollingMsg>();
    if (poll == nullptr) return;
    // Lines 23-27: first contact with this poller identifier.
    if (mship_.insert(poll->id).second) latest_r_[poll->id] = 0;
    Round& latest = latest_r_[poll->id];
    // Lines 28-30: answer every round not yet answered for this identifier,
    // piggybacked as one range.
    if (latest < poll->r) {
      env.broadcast(make_message(MsgType::kPollReply,
                                 PollReplyMsg{latest + 1, poll->r, poll->id, env.self_id()}));
    }
    latest = std::max(latest, poll->r);
    return;
  }
  if (m.type == MsgType::kPollReply) {
    const auto* rep = m.as<PollReplyMsg>();
    if (rep == nullptr) return;
    if (rep->to_id != env.self_id()) return;  // answers some other identifier
    if (rep->hi >= r_) replies_.push_back(StoredReply{rep->lo, rep->hi, rep->from_id});
    // Lines 33-34: an outdated reply means our round outpaced the network —
    // adapt the timeout.
    if (opts_.adaptive_timeout && rep->lo < r_) {
      ++timeout_;
      timeout_trace_.record(env.local_now(), timeout_);
      obs::inc(m_timeout_adaptations_);
    }
  }
}

}  // namespace hds
