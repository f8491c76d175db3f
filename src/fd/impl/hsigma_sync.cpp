#include "fd/impl/hsigma_sync.h"

namespace hds {

void HSigmaCore::attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels) {
  if (reg == nullptr) {
    m_quora_stored_ = nullptr;
    m_quorum_size_ = nullptr;
    return;
  }
  m_quora_stored_ = &reg->counter("hsigma_quora_stored_total", labels);
  m_quorum_size_ = &reg->histogram("fd_quorum_size", obs::size_buckets(), labels);
}

void HSigmaCore::on_step_idents(SimTime t, const Multiset<Id>& mset) {
  if (mset.empty()) return;  // no alive sender observed; nothing to certify
  const Label label = Label::of_multiset(mset);
  const bool new_label = state_.labels.insert(label).second;
  const bool new_quorum = state_.quora.emplace(label, mset).second;  // (mset, mset) is stable
  if (new_quorum) {
    obs::inc(m_quora_stored_);
    obs::observe(m_quorum_size_, static_cast<std::int64_t>(mset.size()));
  }
  trace_.record(t, state_);
  if ((new_label || new_quorum) && listener_ != nullptr) listener_->on_hsigma_change(t, state_);
}

std::vector<Message> HSigmaSyncProcess::step_send(std::size_t) {
  return {make_message(MsgType::kIdent, IdentMsg{self_id_})};
}

void HSigmaSyncProcess::step_recv(std::size_t step, const std::vector<Message>& delivered) {
  Multiset<Id> mset;
  for (const Message& m : delivered) {
    if (m.type != MsgType::kIdent) continue;
    if (const auto* body = m.as<IdentMsg>()) mset.insert(body->id);
  }
  core_.on_step_idents(static_cast<SimTime>(step), mset);
}

HSigmaComponent::HSigmaComponent(SimTime step_len) : step_len_(step_len) {}

void HSigmaComponent::on_start(Env& env) { begin_step(env); }

void HSigmaComponent::begin_step(Env& env) {
  // Broadcast before arming the timer: with a link bound < step_len_, every
  // IDENT of this step is delivered before the step timer fires.
  env.broadcast(make_message(MsgType::kIdent, IdentMsg{env.self_id()}));
  step_timer_ = env.set_timer(step_len_);
}

void HSigmaComponent::on_message(Env&, const Message& m) {
  if (m.type != MsgType::kIdent) return;
  if (const auto* body = m.as<IdentMsg>()) pending_.insert(body->id);
}

void HSigmaComponent::on_timer(Env& env, TimerId id) {
  if (id != step_timer_) return;
  core_.on_step_idents(env.local_now(), pending_);
  pending_.clear();
  begin_step(env);
}

}  // namespace hds
