// Test oracle for the scheduler's calendar queue (sim/event_queue.h): a
// std::priority_queue over (time, lane, push seq). It is the engine's
// original back end, kept so a test can drive both queues through the same
// schedule and require the same pop order. The push seq only breaks ties
// between identical lanes, which the lane scheme never produces within one
// queue.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/action.h"
#include "common/types.h"
#include "sim/lane.h"

namespace hds {

class BinaryHeapQueue {
 public:
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  void push(SimTime t, Lane lane, Action fn) {
    queue_.push(Ev{t, lane, next_seq_++, std::move(fn)});
  }

  [[nodiscard]] SimTime next_time() const { return queue_.top().at; }

  Action pop(SimTime& t, Lane& lane) {
    // priority_queue::top() is const; the action is move-only, so cast away
    // const for the extraction (the element is popped immediately after).
    Ev& top = const_cast<Ev&>(queue_.top());
    t = top.at;
    lane = top.lane;
    Action out = std::move(top.fn);
    queue_.pop();
    return out;
  }

 private:
  struct Ev {
    SimTime at;
    Lane lane;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hds
