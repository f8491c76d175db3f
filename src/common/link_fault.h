// Link-level fault-interposition seam shared by the substrates.
//
// A LinkInterposer sees every per-destination copy at the moment it is put
// on the wire and returns a verdict: drop it, inflate its latency, or
// inject trailing duplicate copies. The simulator's Network and NetSystem's
// send path both consult an installed interposer; when none is installed
// the cost is a single null check, so runs without a fault plan pay
// nothing. The chaos subsystem (src/chaos/) is the intended implementation
// — this header exists so neither substrate depends on it.
//
// Call context: the simulator calls from the event loop (single-threaded);
// NetSystem calls from its node thread (broadcasts) and, with reliability
// on, from its ARQ thread (retransmissions), and an in-process cluster may
// share one interposer across nodes. Implementations must synchronize
// internally and be deterministic as a function of (seed, call order) so
// failing runs replay exactly.
#pragma once

#include <cstddef>

#include "common/msg_type.h"
#include "common/types.h"

namespace hds {

struct CopyVerdict {
  bool drop = false;             // the copy never reaches the destination
  SimTime extra_delay = 0;       // added to the substrate's delivery latency
  std::size_t duplicates = 0;    // extra copies injected behind the original
  SimTime duplicate_spread = 0;  // each duplicate trails the original by [1, spread]
};

class LinkInterposer {
 public:
  virtual ~LinkInterposer() = default;

  // Fate of one copy of a `type` message sent at `now` on link from -> to.
  // NetSystem's standalone ARQ acks carry the control tag kTagRelAck
  // (net/codec.h) as their type.
  virtual CopyVerdict on_copy(SimTime now, ProcIndex from, ProcIndex to, MsgType type) = 0;
};

}  // namespace hds
