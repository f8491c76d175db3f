// Synchronous consensus baselines from the paper's related-work discussion
// (Section 1): the t+1-round bound for crash consensus versus the ~2t+1
// rounds paid when only the anonymous detector AP is available [Bonnet &
// Raynal, "The price of anonymity"].
//
//  - FloodMinSync: classic FloodMin. Every step broadcast the current
//    minimum estimate; decide after exactly t+1 steps (t known). Uses no
//    identifiers at all, so it runs unchanged across the whole homonymy
//    spectrum. Tolerates crash-during-broadcast: t+1 steps contain a clean
//    step, after which every alive estimate is equal.
//
//  - ApStabilitySync: t is NOT known. Estimates flood as above while the
//    process counts alive senders per step (the AP construction); it
//    decides once the count is stable across two consecutive steps — no
//    crash was observed, so the flooding converged — and relays a DECIDE
//    for one further step. One crash per step keeps the count strictly
//    decreasing for t steps, so the adversary forces t+2 steps where
//    FloodMin pays a fixed t+1 — and, measured the other way, failure-free
//    runs decide in 2 steps where FloodMin still pays t+1.
//
//    Caveat (documented, tested): with crash-during-broadcast partial
//    deliveries the early decision is only agreement-among-correct (a
//    process may decide on a count that looks stable to it alone, then
//    crash). Under full-delivery crashes it is uniform. This asymmetry is
//    the qualitative content of the "price of anonymity" discussion: with
//    counting instead of identities, early stopping costs either rounds or
//    uniformity.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "sim/sync_system.h"
#include "spec/consensus_checkers.h"

namespace hds {

struct FloodEstMsg {
  Value est;
};

struct FloodDecideMsg {
  Value v;
};

class FloodMinSync final : public SyncProcess {
 public:
  FloodMinSync(Value proposal, std::size_t t) : est_(proposal), t_(t) {}

  std::vector<Message> step_send(std::size_t step) override;
  void step_recv(std::size_t step, const std::vector<Message>& delivered) override;

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }

 private:
  Value est_;
  std::size_t t_;
  DecisionRecord decision_;
};

class ApStabilitySync final : public SyncProcess {
 public:
  explicit ApStabilitySync(Value proposal) : est_(proposal) {}

  std::vector<Message> step_send(std::size_t step) override;
  void step_recv(std::size_t step, const std::vector<Message>& delivered) override;

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }
  // Steps the process actually ran before deciding (the measured "rounds").
  [[nodiscard]] std::size_t steps_to_decide() const { return steps_to_decide_; }

 private:
  Value est_;
  std::optional<std::size_t> last_count_;
  std::optional<Value> pending_decision_;  // decided; still relaying DECIDE
  bool relayed_ = false;
  DecisionRecord decision_;
  std::size_t steps_to_decide_ = 0;
};

}  // namespace hds
