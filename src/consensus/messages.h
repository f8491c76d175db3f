// Message bodies of the two consensus algorithms (Figs. 8 and 9). Exactly
// the fields the pseudocode carries: in particular PH0/PH1/PH2 of Fig. 8
// carry *no* sender identity — correctness must not depend on telling
// homonymous senders apart.
//
// Each body additionally carries an `instance` tag (default 0) so several
// independent consensus instances — e.g. consecutive slots of a replicated
// log — can share one node and one network without cross-talk. The tag is
// orthogonal to the algorithms: a single-instance deployment never sees it.
#pragma once

#include <set>

#include "common/label.h"
#include "common/types.h"

namespace hds {

struct CoordMsg {
  Id id;  // id(p): leaders coordinate among their homonyms
  Round r;
  Value est;
  std::int64_t instance = 0;
  friend bool operator==(const CoordMsg&, const CoordMsg&) = default;
};

struct Ph0Msg {
  Round r;
  Value est;
  std::int64_t instance = 0;
  friend bool operator==(const Ph0Msg&, const Ph0Msg&) = default;
};

struct Ph1Msg {
  Round r;
  Value est;
  std::int64_t instance = 0;
  friend bool operator==(const Ph1Msg&, const Ph1Msg&) = default;
};

struct Ph2Msg {
  Round r;
  MaybeValue est2;  // nullopt is the paper's bottom
  std::int64_t instance = 0;
  friend bool operator==(const Ph2Msg&, const Ph2Msg&) = default;
};

struct DecideMsg {
  Value v;
  std::int64_t instance = 0;
  friend bool operator==(const DecideMsg&, const DecideMsg&) = default;
};

// Fig. 9's quorum-based phases carry the sender identity, the sub-round and
// the sender's current HΣ label set.
struct Ph1QMsg {
  Id id;
  Round r;
  std::int64_t sr;
  std::set<Label> labels;
  Value est;
  std::int64_t instance = 0;
  friend bool operator==(const Ph1QMsg&, const Ph1QMsg&) = default;
};

struct Ph2QMsg {
  Id id;
  Round r;
  std::int64_t sr;
  std::set<Label> labels;
  MaybeValue est2;
  std::int64_t instance = 0;
  friend bool operator==(const Ph2QMsg&, const Ph2QMsg&) = default;
};

}  // namespace hds
