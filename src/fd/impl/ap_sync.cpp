#include "fd/impl/ap_sync.h"

namespace hds {

void APCore::on_step_count(SimTime t, std::size_t count) {
  if (count == 0) return;  // cannot happen for an alive process (self-loop)
  anap_ = count;
  trace_.record(t, anap_);
}

std::vector<Message> APSyncProcess::step_send(std::size_t) {
  return {make_message(MsgType::kApAlive, ApAliveMsg{})};
}

void APSyncProcess::step_recv(std::size_t step, const std::vector<Message>& delivered) {
  std::size_t count = 0;
  for (const Message& m : delivered) {
    if (m.type == MsgType::kApAlive) ++count;
  }
  // The count is formed at the *end* of step `step`: a sender that crashed
  // while broadcasting in this step is already dead by then, so the value
  // takes effect at step+1 (AP safety is against the aliveness from the
  // moment of the estimate on).
  core_.on_step_count(static_cast<SimTime>(step) + 1, count);
}

APComponent::APComponent(SimTime step_len) : step_len_(step_len) {}

void APComponent::on_start(Env& env) { begin_step(env); }

void APComponent::begin_step(Env& env) {
  env.broadcast(make_message(MsgType::kApAlive, ApAliveMsg{}));
  step_timer_ = env.set_timer(step_len_);
}

void APComponent::on_message(Env&, const Message& m) {
  if (m.type == MsgType::kApAlive) ++pending_;
}

void APComponent::on_timer(Env& env, TimerId id) {
  if (id != step_timer_) return;
  core_.on_step_count(env.local_now(), pending_);
  pending_ = 0;
  begin_step(env);
}

}  // namespace hds
