#include "fd/reduce/sigma_to_hsigma.h"

#include <stdexcept>
#include <vector>

namespace hds {

std::set<Label> labels_of_membership(const std::set<Id>& membership, Id self) {
  // {s : s <= membership and self in s} — empty while self is unknown (in
  // Fig. 2, before the process has received its own IDENT).
  if (!membership.contains(self)) return {};
  if (membership.size() > kMaxMembershipForLabels) {
    throw std::invalid_argument("labels_of_membership: label universe too large");
  }
  std::vector<Id> others;
  for (Id i : membership) {
    if (i != self) others.push_back(i);
  }
  std::set<Label> out;
  const std::size_t k = others.size();
  for (std::size_t mask = 0; mask < (std::size_t{1} << k); ++mask) {
    std::set<Id> s{self};
    for (std::size_t b = 0; b < k; ++b) {
      if (mask & (std::size_t{1} << b)) s.insert(others[b]);
    }
    out.insert(Label::of_set(s));
  }
  return out;
}

namespace {

// Lines 5-6 of Figs. 1-2: h_quora <- h_quora U {(q, q)} with q = D.trusted.
// True when the quorum was not already stored.
bool fold_quorum(HSigmaSnapshot& state, const Multiset<Id>& q) {
  if (q.empty()) return false;  // Σ produced no output yet
  std::set<Id> support;
  for (const auto& [v, c] : q.counts()) {
    (void)c;
    support.insert(v);
  }
  return state.quora.emplace(Label::of_set(support), q).second;
}

}  // namespace

SigmaToHSigmaLocal::SigmaToHSigmaLocal(const SigmaHandle& sigma, Id self_id,
                                       std::set<Id> membership, SimTime period)
    : sigma_(sigma), period_(period) {
  state_.labels = labels_of_membership(membership, self_id);
}

void SigmaToHSigmaLocal::on_start(Env& env) {
  sample(env.local_now());
  env.set_timer(period_);
}

void SigmaToHSigmaLocal::on_timer(Env& env, TimerId) {
  sample(env.local_now());
  env.set_timer(period_);
}

void SigmaToHSigmaLocal::sample(SimTime now) {
  const bool grew = fold_quorum(state_, sigma_.trusted());
  trace_.record(now, state_);
  if (grew && listener_ != nullptr) listener_->on_hsigma_change(now, state_);
}

SigmaToHSigmaBcast::SigmaToHSigmaBcast(const SigmaHandle& sigma, SimTime period)
    : sigma_(sigma), period_(period) {}

void SigmaToHSigmaBcast::attach_metrics(obs::MetricsRegistry* reg, obs::Labels labels) {
  if (reg == nullptr) {
    m_msgs_ = nullptr;
    m_bytes_ = nullptr;
    return;
  }
  labels.emplace("reduction", "sigma_to_hsigma");
  m_msgs_ = &reg->counter("reduce_msgs_total", labels);
  m_bytes_ = &reg->counter("reduce_bytes_total", labels);
}

void SigmaToHSigmaBcast::beat(Env& env) {
  env.broadcast(make_message(MsgType::kSigIdent, SigIdentMsg{env.self_id()}));
  obs::inc(m_msgs_);
  obs::inc(m_bytes_, sizeof(Id));
}

void SigmaToHSigmaBcast::on_start(Env& env) {
  beat(env);
  sample(env.local_now());
  env.set_timer(period_);
}

void SigmaToHSigmaBcast::on_timer(Env& env, TimerId) {
  beat(env);
  sample(env.local_now());
  env.set_timer(period_);
}

void SigmaToHSigmaBcast::on_message(Env& env, const Message& m) {
  if (m.type != MsgType::kSigIdent) return;
  const auto* body = m.as<SigIdentMsg>();
  if (body == nullptr) return;
  // Lines 14-16: learn the sender and rebuild h_labels over the larger
  // membership (monotone: supersets only add labels).
  if (mship_.insert(body->id).second) {
    state_.labels = labels_of_membership(mship_, env.self_id());
    trace_.record(env.local_now(), state_);
    if (listener_ != nullptr) listener_->on_hsigma_change(env.local_now(), state_);
  }
}

void SigmaToHSigmaBcast::sample(SimTime now) {
  const bool grew = fold_quorum(state_, sigma_.trusted());
  trace_.record(now, state_);
  if (grew && listener_ != nullptr) listener_->on_hsigma_change(now, state_);
}

}  // namespace hds
