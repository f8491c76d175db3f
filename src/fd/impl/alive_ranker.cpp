#include "fd/impl/alive_ranker.h"

#include <algorithm>

namespace hds {

AliveRanker::AliveRanker(SimTime resend_period) : period_(resend_period) {}

void AliveRanker::on_start(Env& env) {
  env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
  env.set_timer(period_);
}

void AliveRanker::on_timer(Env& env, TimerId) {
  env.broadcast(make_message(MsgType::kAlive, AliveMsg{env.self_id()}));
  env.set_timer(period_);
}

void AliveRanker::on_message(Env& env, const Message& m) {
  if (m.type != MsgType::kAlive) return;
  const auto* body = m.as<AliveMsg>();
  if (body == nullptr) return;
  auto it = std::find(alive_.begin(), alive_.end(), body->id);
  if (it != alive_.end()) alive_.erase(it);
  alive_.insert(alive_.begin(), body->id);
  trace_.record(env.local_now(), alive_);
}

}  // namespace hds
