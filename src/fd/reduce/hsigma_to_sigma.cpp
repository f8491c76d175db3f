#include "fd/reduce/hsigma_to_sigma.h"

#include <limits>

namespace hds {

namespace {

// m ⊆ idents[x] with unique identifiers: every instance has multiplicity 1
// and its identifier is a known carrier of the label.
bool explained(const Multiset<Id>& m, const std::set<Id>& carriers) {
  for (const auto& [i, c] : m.counts()) {
    if (c != 1 || !carriers.contains(i)) return false;
  }
  return !m.empty();
}

}  // namespace

HSigmaToSigma::HSigmaToSigma(const HSigmaHandle& hsigma, const RankerHandle& ranker,
                             SimTime period)
    : hsigma_(hsigma), ranker_(ranker), period_(period) {}

void HSigmaToSigma::attach_metrics(obs::MetricsRegistry* reg, obs::Labels labels) {
  if (reg == nullptr) {
    m_msgs_ = nullptr;
    m_bytes_ = nullptr;
    return;
  }
  labels.emplace("reduction", "hsigma_to_sigma");
  m_msgs_ = &reg->counter("reduce_msgs_total", labels);
  m_bytes_ = &reg->counter("reduce_bytes_total", labels);
}

void HSigmaToSigma::on_start(Env& env) { tick(env); }

void HSigmaToSigma::on_timer(Env& env, TimerId) { tick(env); }

void HSigmaToSigma::tick(Env& env) {
  const HSigmaSnapshot snap = hsigma_.snapshot();
  // Line 5: publish our current label set.
  env.broadcast(make_message(MsgType::kLabels, LabelsMsg{env.self_id(), snap.labels}));
  obs::inc(m_msgs_);
  if (m_bytes_ != nullptr) {
    std::uint64_t bytes = sizeof(Id);
    for (const Label& x : snap.labels) bytes += x.repr().size();
    m_bytes_->inc(bytes);
  }
  // Lines 6-8: pick among explained candidates the multiset whose
  // worst-ranked member sits highest in X.alive.
  const std::vector<Id> alive = ranker_.alive_list();
  const Multiset<Id>* best = nullptr;
  std::size_t best_rank = std::numeric_limits<std::size_t>::max();
  for (const auto& [x, m] : snap.quora) {
    auto it = idents_.find(x);
    if (it == idents_.end() || !explained(m, it->second)) continue;
    std::size_t worst = 0;
    for (const auto& [i, c] : m.counts()) {
      (void)c;
      worst = std::max(worst, rank_of(i, alive));
    }
    if (worst < best_rank || (worst == best_rank && best != nullptr && m < *best)) {
      best = &m;
      best_rank = worst;
    }
  }
  if (best != nullptr) {
    const bool changed = !(*best == trusted_);
    trusted_ = *best;
    trace_.record(env.local_now(), trusted_);
    if (changed && listener_ != nullptr) listener_->on_sigma_change(env.local_now(), trusted_);
  }
  env.set_timer(period_);
}

void HSigmaToSigma::on_message(Env&, const Message& m) {
  if (m.type != MsgType::kLabels) return;
  const auto* body = m.as<LabelsMsg>();
  if (body == nullptr) return;
  // Lines 13-17: idents[x] <- idents[x] U {i}.
  for (const Label& x : body->labels) idents_[x].insert(body->id);
}

}  // namespace hds
