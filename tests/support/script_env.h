// Test doubles for protocol-level unit tests: a recording Env and
// hand-settable failure-detector handles, so a consensus state machine can
// be driven message by message and its outputs asserted exactly.
#pragma once

#include <algorithm>
#include <vector>

#include "fd/interfaces.h"
#include "sim/process.h"

namespace hds::testing {

class ScriptEnv final : public Env {
 public:
  explicit ScriptEnv(Id self) : self_(self) {}

  [[nodiscard]] Id self_id() const override { return self_; }
  void broadcast(Message m) override { sent.push_back(std::move(m)); }
  TimerId set_timer(SimTime delay) override {
    timers.push_back({next_timer_, delay});
    return next_timer_++;
  }
  [[nodiscard]] SimTime local_now() const override { return now; }

  // --- assertion helpers -------------------------------------------------

  [[nodiscard]] std::size_t count(MsgType type) const {
    return static_cast<std::size_t>(
        std::count_if(sent.begin(), sent.end(), [&](const Message& m) { return m.type == type; }));
  }

  // Last sent message of `type` (nullptr if none).
  [[nodiscard]] const Message* last(MsgType type) const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (it->type == type) return &*it;
    }
    return nullptr;
  }

  template <typename T>
  [[nodiscard]] const T* last_body(MsgType type) const {
    const Message* m = last(type);
    return m == nullptr ? nullptr : m->as<T>();
  }

  void clear() { sent.clear(); }

  struct Armed {
    TimerId id;
    SimTime delay;
  };

  std::vector<Message> sent;
  std::vector<Armed> timers;
  SimTime now = 0;

 private:
  Id self_;
  TimerId next_timer_ = 1;
};

class ScriptHOmega final : public HOmegaHandle {
 public:
  [[nodiscard]] HOmegaOut h_omega() const override { return out; }
  HOmegaOut out{kBottomId, 1};
};

class ScriptHSigma final : public HSigmaHandle {
 public:
  [[nodiscard]] HSigmaSnapshot snapshot() const override { return snap; }
  HSigmaSnapshot snap;
};

class ScriptAOmega final : public AOmegaHandle {
 public:
  [[nodiscard]] bool a_leader() const override { return leader; }
  bool leader = false;
};

}  // namespace hds::testing
