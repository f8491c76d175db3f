// Figure 3: implementation of class S (Definition 1) in AS[...] — an
// asynchronous system with unique identifiers and unknown membership.
//
// Every process repeatedly broadcasts ALIVE(id(p)); on reception of
// ALIVE(i) the identifier i is moved to (or inserted at) the front of the
// `alive` list. Faulty processes eventually stop sending, so their
// identifiers sink below every correct identifier: eventually the correct
// processes permanently occupy the prefix (rank <= |Correct|).
#pragma once

#include <vector>

#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "sim/process.h"

namespace hds {

struct AliveMsg {
  Id id;
  friend bool operator==(const AliveMsg&, const AliveMsg&) = default;
};

class AliveRanker final : public Process, public RankerHandle {
 public:
  explicit AliveRanker(SimTime resend_period = 5);

  // RankerHandle.
  [[nodiscard]] std::vector<Id> alive_list() const override { return alive_; }

  [[nodiscard]] const Trajectory<std::vector<Id>>& trace() const { return trace_; }

  // Process.
  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

 private:
  SimTime period_;
  std::vector<Id> alive_;  // front = rank 1
  Trajectory<std::vector<Id>> trace_;
};

}  // namespace hds
