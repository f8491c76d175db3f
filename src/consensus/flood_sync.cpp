#include "consensus/flood_sync.h"

#include <algorithm>

namespace hds {

std::vector<Message> FloodMinSync::step_send(std::size_t step) {
  if (decision_.decided || step > t_) return {};
  return {make_message(MsgType::kFloodEst, FloodEstMsg{est_})};
}

void FloodMinSync::step_recv(std::size_t step, const std::vector<Message>& delivered) {
  if (decision_.decided) return;
  for (const Message& m : delivered) {
    if (const auto* b = m.as<FloodEstMsg>()) est_ = std::min(est_, b->est);
  }
  // Steps 0..t flood; at the end of step t, t+1 exchanges have happened.
  if (step >= t_) {
    decision_ = DecisionRecord{true, static_cast<SimTime>(step), est_,
                               static_cast<Round>(step + 1)};
  }
}

std::vector<Message> ApStabilitySync::step_send(std::size_t) {
  if (decision_.decided && relayed_) return {};
  std::vector<Message> out;
  if (pending_decision_) {
    // One relay step: convey the decision before going quiet.
    out.push_back(make_message(MsgType::kFloodDecide, FloodDecideMsg{*pending_decision_}));
    relayed_ = true;
    return out;
  }
  out.push_back(make_message(MsgType::kFloodEst, FloodEstMsg{est_}));
  return out;
}

void ApStabilitySync::step_recv(std::size_t step, const std::vector<Message>& delivered) {
  if (decision_.decided) return;
  std::size_t count = 0;
  for (const Message& m : delivered) {
    if (const auto* b = m.as<FloodEstMsg>()) {
      est_ = std::min(est_, b->est);
      ++count;
    } else if (const auto* d = m.as<FloodDecideMsg>()) {
      // Adopt a conveyed decision immediately (and relay it next step).
      est_ = d->v;
      pending_decision_ = d->v;
    }
  }
  if (!pending_decision_) {
    // Early-stopping rule: two consecutive steps with the same alive-sender
    // count mean no crash interfered — the flood converged.
    if (last_count_ && *last_count_ == count) pending_decision_ = est_;
    last_count_ = count;
  }
  if (pending_decision_) {
    decision_ = DecisionRecord{true, static_cast<SimTime>(step), *pending_decision_,
                               static_cast<Round>(step + 1)};
    steps_to_decide_ = step + 1;
  }
}

}  // namespace hds
