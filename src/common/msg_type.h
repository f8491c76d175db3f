// Message kinds: the one identity every layer routes, meters and counts on.
//
// In the paper's model a receiver tells the Fig. 6/8/9 messages apart only
// by their kind (POLLING, P_REPLY, COORD, PH0-PH2, ...). A kind is one byte.
// The wire kinds ARE the v1 codec's body tags (net/codec.h): the golden
// fixtures under tests/wire/ freeze values 1-18, so never renumber them and
// give a new wire kind the next free value. The local kinds (lock-step and
// reduction messages that never leave the simulator) and the reserved
// test/benchmark range sit at and above kFirstLocalTag, which the codec
// registry refuses, and below the transport-control tags (>= 0xF0).
//
// HDS_MSG_TYPES is the one table: enumerator, value and printable name.
// Names are read only at export (trace records, metric labels, the
// string-keyed broadcasts_by_type maps, the wire-fixture file names
// tests/wire/tagNN_<NAME>.bin).
#pragma once

#include <cstdint>

#define HDS_MSG_TYPES(X)                                                     \
  X(kAlive, 1, "ALIVE")              /* Fig. 3 */                            \
  X(kApAlive, 2, "AP_ALIVE")         /* AP detector */                       \
  X(kHeartbeat, 3, "HB")             /* HOmega heartbeats */                 \
  X(kIdent, 4, "IDENT")              /* Fig. 5 */                            \
  X(kPolling, 5, "POLLING")          /* Fig. 6 */                            \
  X(kPollReply, 6, "P_REPLY")        /* Fig. 6 */                            \
  X(kCoord, 7, "COORD")              /* Figs. 8 and 9 */                     \
  X(kPh0, 8, "PH0")                  /* Figs. 8 and 9 */                     \
  X(kPh1, 9, "PH1")                  /* Fig. 8 */                            \
  X(kPh2, 10, "PH2")                 /* Fig. 8 */                            \
  X(kDecide, 11, "DECIDE")           /* Figs. 8 and 9 */                     \
  X(kPh1Q, 12, "PH1Q")               /* Fig. 9 */                            \
  X(kPh2Q, 13, "PH2Q")               /* Fig. 9 */                            \
  X(kSmrAppend, 14, "SMR_APPEND")    /* replicated log (src/smr/) */         \
  X(kSmrAck, 15, "SMR_ACK")                                                  \
  X(kSmrNewEpoch, 16, "SMR_NEW_EPOCH")                                       \
  X(kSmrPromise, 17, "SMR_PROMISE")                                          \
  X(kSmrPropose, 18, "SMR_PROPOSE")                                          \
  X(kFloodEst, 0xD0, "FLOOD_EST")    /* local: Fig. 7 lock-step flooding */  \
  X(kFloodDecide, 0xD1, "FLOOD_DEC") /* local */                             \
  X(kSigIdent, 0xD2, "SIG_IDENT")    /* local: Sigma -> HSigma reduction */  \
  X(kLabels, 0xD3, "LABELS")         /* local: HSigma -> Sigma reduction */  \
  X(kTest0, 0xE0, "TEST0")           /* reserved for tests and benchmarks */ \
  X(kTest1, 0xE1, "TEST1")                                                   \
  X(kTest2, 0xE2, "TEST2")                                                   \
  X(kTest3, 0xE3, "TEST3")

namespace hds {

enum class MsgType : std::uint8_t {
  kNone = 0,  // a default-constructed Message; has no name and no codec
#define HDS_MSG_TYPE_ENUM(k, v, name) k = v,
  HDS_MSG_TYPES(HDS_MSG_TYPE_ENUM)
#undef HDS_MSG_TYPE_ENUM
};

// Kinds at or above this value never have a codec.
inline constexpr std::uint8_t kFirstLocalTag = 0xD0;

[[nodiscard]] constexpr std::uint8_t tag_of(MsgType t) { return static_cast<std::uint8_t>(t); }

// Printable name of a kind; "" for a value with no table row (kNone, a
// transport-control tag).
[[nodiscard]] constexpr const char* type_name(MsgType t) {
  switch (t) {
#define HDS_MSG_TYPE_CASE(k, v, name) \
  case MsgType::k:                    \
    return name;
    HDS_MSG_TYPES(HDS_MSG_TYPE_CASE)
#undef HDS_MSG_TYPE_CASE
    default:
      return "";
  }
}

// Every named kind with its name, in table order (tests iterate it).
struct MsgTypeName {
  MsgType type;
  const char* name;
};
inline constexpr MsgTypeName kMsgTypeNames[] = {
#define HDS_MSG_TYPE_ROW(k, v, name) {MsgType::k, name},
    HDS_MSG_TYPES(HDS_MSG_TYPE_ROW)
#undef HDS_MSG_TYPE_ROW
};

}  // namespace hds
