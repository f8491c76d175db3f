// The discrete-event scheduler's event queue.
//
// Events pop in (time, lane) order, where the lane is a provenance key
// (sim/lane.h) that is a pure function of the configuration rather than of
// push order. That is what lets a sharded run (sim/system.h with shards >
// 1) reproduce the single-queue order exactly: every shard sorts its own
// subsequence by the same global key. The golden-trace tests pin
// bit-identity across shard counts, and a binary-heap oracle in the tests
// (tests/support/binary_heap_queue.h) pins the pop order.
//
// CalendarQueue is a bucketed calendar / bucket queue. A ring of kSlots
// buckets covers the time window [base, base + kSlots); each in-window tick
// maps to exactly one bucket holding {lane, action} items. Items append in
// push order and the bucket lazily sorts by lane the first time the tick is
// drained (appends in ascending lane — the common monotone-counter case —
// keep the sorted flag and skip the sort). Events beyond the window park in
// a sorted overflow map and migrate into the ring when the window advances.
// push/pop stay O(1) amortized for the near-future events that dominate
// simulation workloads, and the bucket vectors recycle their capacity, so
// the steady state allocates nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/action.h"
#include "common/types.h"
#include "sim/lane.h"

namespace hds {

class CalendarQueue {
 public:
  // Ring width: covers all short-horizon scheduling (link delays, heartbeat
  // periods, consensus phase timers) without overflow traffic. Power of two
  // so the slot index is a mask.
  static constexpr std::size_t kSlots = 1024;

  CalendarQueue() : ring_(kSlots) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  // Pushes an event at absolute time t with canonical lane `lane`. Caller
  // (the scheduler) guarantees t >= the time of the most recently popped
  // event, and that a push into the currently draining tick carries a lane
  // strictly greater than the lane being executed (see sim/lane.h).
  void push(SimTime t, Lane lane, Action fn) {
    if (t < window_end_ && t >= base_) {
      Bucket& b = ring_[bucket_of(t)];
      if (b.sorted && !bucket_empty(b) && lane < b.items.back().lane) b.sorted = false;
      b.items.push_back(Item{lane, std::move(fn)});
      ++window_count_;
      // A peek may have walked the cursor past an empty tick that is now
      // being filled; pull it back so the scan revisits it.
      if (t < cursor_) cursor_ = t;
    } else {
      overflow_[t].push_back(Item{lane, std::move(fn)});
    }
    ++size_;
  }

  // Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() {
    if (window_count_ > 0) {
      advance_cursor();
      return cursor_;
    }
    return overflow_.begin()->first;
  }

  // Pops the earliest event (minimum lane within a tick); sets t and lane.
  // Precondition: !empty().
  Action pop(SimTime& t, Lane& lane) {
    if (window_count_ == 0) advance_window_to(overflow_.begin()->first);
    advance_cursor();
    t = cursor_;
    Bucket& b = ring_[bucket_of(cursor_)];
    if (!b.sorted) {
      std::sort(b.items.begin() + static_cast<std::ptrdiff_t>(b.head), b.items.end(),
                [](const Item& x, const Item& y) { return x.lane < y.lane; });
      b.sorted = true;
    }
    Item& it = b.items[b.head++];
    lane = it.lane;
    Action out = std::move(it.fn);
    if (b.head == b.items.size()) {
      b.items.clear();
      b.head = 0;
      b.sorted = true;
    }
    --window_count_;
    --size_;
    return out;
  }

 private:
  struct Item {
    Lane lane;
    Action fn;
  };
  struct Bucket {
    std::vector<Item> items;  // consumed from head; lane-sorted tail once draining
    std::size_t head = 0;
    bool sorted = true;  // [head, end) is in ascending lane order
  };

  [[nodiscard]] std::size_t bucket_of(SimTime t) const {
    return static_cast<std::size_t>(t) & (kSlots - 1);
  }

  [[nodiscard]] bool bucket_empty(const Bucket& b) const { return b.head == b.items.size(); }

  // Walks the cursor to the first non-empty in-window bucket.
  // Precondition: window_count_ > 0.
  void advance_cursor() {
    while (bucket_empty(ring_[bucket_of(cursor_)])) ++cursor_;
  }

  // Re-bases the (fully drained) window so it starts at `t` and migrates
  // every overflow entry that now falls inside it. Migrated vectors arrive
  // in push order and later direct pushes append after them; the lazy
  // per-tick sort restores the canonical lane order either way.
  void advance_window_to(SimTime t) {
    base_ = t;
    window_end_ = t + static_cast<SimTime>(kSlots);
    cursor_ = t;
    auto it = overflow_.begin();
    while (it != overflow_.end() && it->first < window_end_) {
      Bucket& b = ring_[bucket_of(it->first)];
      b.items = std::move(it->second);
      b.head = 0;
      b.sorted = false;
      window_count_ += b.items.size();
      it = overflow_.erase(it);
    }
  }

  std::vector<Bucket> ring_;
  std::map<SimTime, std::vector<Item>> overflow_;  // events with t >= window_end_
  SimTime base_ = 0;
  SimTime window_end_ = static_cast<SimTime>(kSlots);
  SimTime cursor_ = 0;          // current scan position (absolute time)
  std::size_t window_count_ = 0;  // pending events inside the window
  std::size_t size_ = 0;
};

}  // namespace hds
