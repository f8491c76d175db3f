// AP (Bonnet & Raynal's anonymous perfect detector) in an anonymous
// synchronous system: each step every process broadcasts an anonymous
// ALIVE mark and sets anap to the number of marks received in the step.
// The count never undershoots the number of processes alive from that point
// on (safety) and equals |Correct| once the last crash is past (liveness).
//
// AP is the source detector of the paper's Lemma 2 (AP -> ◇HP̄) and
// Lemma 3 (AP -> HΣ) reductions, which together with the consensus
// algorithm of Fig. 9 yield anonymous synchronous consensus for any number
// of crashes — the full-stack integration this library reproduces.
//
// Until the first step completes, anap is "infinity" (SIZE_MAX): AP must
// over- rather than under-estimate, and an anonymous process does not know n.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "sim/process.h"
#include "sim/sync_system.h"

namespace hds {

struct ApAliveMsg {
  friend bool operator==(const ApAliveMsg&, const ApAliveMsg&) = default;
};

class APCore {
 public:
  void on_step_count(SimTime t, std::size_t count);

  [[nodiscard]] std::size_t anap() const { return anap_; }
  [[nodiscard]] const Trajectory<std::size_t>& trace() const { return trace_; }

 private:
  std::size_t anap_ = std::numeric_limits<std::size_t>::max();
  Trajectory<std::size_t> trace_;
};

class APSyncProcess final : public SyncProcess, public APHandle {
 public:
  std::vector<Message> step_send(std::size_t step) override;
  void step_recv(std::size_t step, const std::vector<Message>& delivered) override;

  [[nodiscard]] std::size_t anap() const override { return core_.anap(); }
  [[nodiscard]] const APCore& core() const { return core_; }

 private:
  APCore core_;
};

// Event-engine lock-step host (same contract as HSigmaComponent: step_len
// must exceed the known link bound).
class APComponent final : public Process, public APHandle {
 public:
  explicit APComponent(SimTime step_len);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] std::size_t anap() const override { return core_.anap(); }
  [[nodiscard]] const APCore& core() const { return core_; }

 private:
  void begin_step(Env& env);

  SimTime step_len_;
  TimerId step_timer_ = 0;
  std::size_t pending_ = 0;
  APCore core_;
};

}  // namespace hds
