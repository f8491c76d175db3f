// Wire codec tests: primitive round-trips, seeded random round-trips of
// every registered body type, batch envelope round-trips, and rejection of
// malformed / truncated / corrupted frames (which must throw CodecError —
// never crash or read out of bounds; the sanitizer CI config runs these).
#include "net/codec.h"

#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <set>
#include <string>

#include "common/label.h"
#include "common/rng.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "net/reliable.h"
#include "net/wire.h"
#include "sim/system.h"
#include "smr/types.h"

namespace hds::net {
namespace {

// ------------------------------------------------------------ primitives

TEST(Wire, VarintRoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63),
                                 ~0ull};
  for (const std::uint64_t v : cases) {
    WireWriter w;
    w.varint(v);
    WireReader r(w.data().data(), w.size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Wire, SvarintRoundTripsSignedBoundaries) {
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 64, -65, (std::int64_t)1 << 62,
                                INT64_MAX, INT64_MIN};
  for (const std::int64_t v : cases) {
    WireWriter w;
    w.svarint(v);
    WireReader r(w.data().data(), w.size());
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Wire, StringRoundTripsAndRejectsOverlongLength) {
  WireWriter w;
  w.str("quorum {1,1,2}");
  WireReader r(w.data().data(), w.size());
  EXPECT_EQ(r.str(), "quorum {1,1,2}");

  // A length prefix larger than the remaining bytes must throw, not read on.
  WireWriter bad;
  bad.varint(1000);
  bad.u8('x');
  WireReader rb(bad.data().data(), bad.size());
  EXPECT_THROW(rb.str(), CodecError);
}

TEST(Wire, TruncatedVarintThrows) {
  const std::uint8_t lone_continuation[] = {0x80};
  WireReader r(lone_continuation, 1);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Wire, OverlongVarintThrows) {
  // 11 continuation bytes: more than a u64 can need.
  std::vector<std::uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.varint(), CodecError);
}

// ------------------------------------------------- random body generation

MsgType type_of(const BodyCodec& c) { return MsgType{c.tag}; }

Message random_body(MsgType type, Rng& rng) {
  const auto rid = [&] { return static_cast<Id>(rng.uniform(0, 1 << 20)); };
  const auto rval = [&] { return static_cast<Value>(rng.uniform(-100000, 100000)); };
  const auto rround = [&] { return static_cast<Round>(rng.uniform(0, 5000)); };
  const auto rinst = [&] { return static_cast<std::int64_t>(rng.uniform(-5, 5)); };
  const auto rmaybe = [&]() -> MaybeValue {
    if (rng.chance(0.3)) return std::nullopt;
    return rval();
  };
  const auto rlabels = [&] {
    std::set<Label> out;
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) {
      Multiset<Id> m;
      const std::size_t sz = 1 + rng.index(4);
      for (std::size_t j = 0; j < sz; ++j) m.insert(rid());
      out.insert(Label::of_multiset(m));
    }
    return out;
  };

  const auto rop = [&] {
    smr::SmrOp op;
    op.client = static_cast<std::uint64_t>(rng.uniform(0, 1 << 21));
    op.seq = rng.uniform(0, 10000);
    op.key = rng.uniform(0, 256);
    op.val = rng.uniform(-100000, 100000);
    const std::size_t pad = rng.index(6);
    for (std::size_t i = 0; i < pad; ++i) {
      op.pad.push_back(static_cast<std::uint8_t>(rng.index(256)));
    }
    return op;
  };
  const auto rbatch = [&] {
    smr::SmrBatch b;
    b.id = rng.uniform(0, 1 << 20);
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) b.ops.push_back(rop());
    return b;
  };
  const auto rcommits = [&] {
    std::vector<smr::SmrCommitRec> out;
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(smr::SmrCommitRec{rng.uniform(0, 5000), rng.uniform(0, 1 << 20)});
    }
    return out;
  };

  if (type == MsgType::kAlive) return make_message(type, AliveMsg{rid()});
  if (type == MsgType::kApAlive) return make_message(type, ApAliveMsg{});
  if (type == MsgType::kHeartbeat) {
    return make_message(type, HeartbeatMsg{rid(), rng.uniform(0, 1 << 30)});
  }
  if (type == MsgType::kIdent) return make_message(type, IdentMsg{rid()});
  if (type == MsgType::kPolling) return make_message(type, PollingMsg{rround(), rid()});
  if (type == MsgType::kPollReply) {
    return make_message(type, PollReplyMsg{rround(), rround(), rid(), rid()});
  }
  if (type == MsgType::kCoord) {
    return make_message(type, CoordMsg{rid(), rround(), rval(), rinst()});
  }
  if (type == MsgType::kPh0) return make_message(type, Ph0Msg{rround(), rval(), rinst()});
  if (type == MsgType::kPh1) return make_message(type, Ph1Msg{rround(), rval(), rinst()});
  if (type == MsgType::kPh2) return make_message(type, Ph2Msg{rround(), rmaybe(), rinst()});
  if (type == MsgType::kDecide) return make_message(type, DecideMsg{rval(), rinst()});
  if (type == MsgType::kPh1Q) {
    return make_message(type,
                        Ph1QMsg{rid(), rround(), rng.uniform(0, 50), rlabels(), rval(), rinst()});
  }
  if (type == MsgType::kPh2Q) {
    return make_message(type,
                        Ph2QMsg{rid(), rround(), rng.uniform(0, 50), rlabels(), rmaybe(), rinst()});
  }
  if (type == MsgType::kSmrAppend) {
    return make_message(type,
                        smr::SmrAppendMsg{rng.uniform(0, 500), rng.uniform(0, 5000), rbatch(),
                                          rcommits()});
  }
  if (type == MsgType::kSmrAck) {
    smr::SmrAckMsg m;
    m.epoch = rng.uniform(0, 500);
    m.replica = static_cast<std::uint64_t>(rng.uniform(0, 64));
    m.logged_through = rng.uniform(0, 5000);
    m.applied_through = rng.uniform(0, 5000);
    m.commit_frontier = rng.uniform(0, 5000);
    m.commits = rcommits();
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) m.pending.push_back(rop());
    return make_message(type, m);
  }
  if (type == MsgType::kSmrNewEpoch) {
    return make_message(type,
                        smr::SmrNewEpochMsg{rng.uniform(0, 500), rng.uniform(0, 5000),
                                            static_cast<std::uint64_t>(rng.uniform(0, 64))});
  }
  if (type == MsgType::kSmrPromise) {
    smr::SmrPromiseMsg m;
    m.epoch = rng.uniform(0, 500);
    m.replica = static_cast<std::uint64_t>(rng.uniform(0, 64));
    m.frontier = rng.uniform(0, 5000);
    const std::size_t k = rng.index(3);
    for (std::size_t i = 0; i < k; ++i) {
      m.entries.push_back(
          smr::SmrLogRec{rng.uniform(0, 5000), rng.uniform(0, 500), rng.chance(0.5), rbatch()});
    }
    return make_message(type, m);
  }
  if (type == MsgType::kSmrPropose) {
    return make_message(type,
                        smr::SmrProposeMsg{rng.uniform(0, 500), rng.uniform(0, 5000), rbatch()});
  }
  throw std::logic_error(std::string("no generator for registered type ") + type_name(type));
}

bool bodies_equal(MsgType type, const std::any& a, const std::any& b) {
  const auto eq = [&](auto tag) {
    using T = decltype(tag);
    return *std::any_cast<T>(&a) == *std::any_cast<T>(&b);
  };
  if (type == MsgType::kAlive) return eq(AliveMsg{});
  if (type == MsgType::kApAlive) return eq(ApAliveMsg{});
  if (type == MsgType::kHeartbeat) return eq(HeartbeatMsg{});
  if (type == MsgType::kIdent) return eq(IdentMsg{});
  if (type == MsgType::kPolling) return eq(PollingMsg{});
  if (type == MsgType::kPollReply) return eq(PollReplyMsg{});
  if (type == MsgType::kCoord) return eq(CoordMsg{});
  if (type == MsgType::kPh0) return eq(Ph0Msg{});
  if (type == MsgType::kPh1) return eq(Ph1Msg{});
  if (type == MsgType::kPh2) return eq(Ph2Msg{});
  if (type == MsgType::kDecide) return eq(DecideMsg{});
  if (type == MsgType::kPh1Q) return eq(Ph1QMsg{});
  if (type == MsgType::kPh2Q) return eq(Ph2QMsg{});
  if (type == MsgType::kSmrAppend) return eq(smr::SmrAppendMsg{});
  if (type == MsgType::kSmrAck) return eq(smr::SmrAckMsg{});
  if (type == MsgType::kSmrNewEpoch) return eq(smr::SmrNewEpochMsg{});
  if (type == MsgType::kSmrPromise) return eq(smr::SmrPromiseMsg{});
  if (type == MsgType::kSmrPropose) return eq(smr::SmrProposeMsg{});
  throw std::logic_error(std::string("no comparator for registered type ") + type_name(type));
}

// ------------------------------------------------------ frame round-trips

TEST(Codec, EveryRegisteredTypeHasGeneratorCoverage) {
  // If a new body codec is registered without extending the fuzzer, fail
  // loudly here rather than silently fuzzing a subset.
  for (const BodyCodec* c : builtin_codecs().all()) {
    Rng rng(1);
    EXPECT_NO_THROW({ (void)random_body(type_of(*c), rng); }) << type_name(type_of(*c));
  }
}

TEST(Codec, SeededFuzzRoundTripsEveryBodyType) {
  Rng rng(20260805);
  for (const BodyCodec* c : builtin_codecs().all()) {
    for (int iter = 0; iter < 200; ++iter) {
      const Message m = random_body(type_of(*c), rng);
      const ProcIndex sender = static_cast<ProcIndex>(rng.index(64));
      const Id sender_id = static_cast<Id>(rng.uniform(0, 1 << 16));
      const auto frame = encode_frame(builtin_codecs(), m, sender, sender_id);
      ASSERT_EQ(frame.size(), encoded_frame_size(builtin_codecs(), m, sender, sender_id));
      const Message back = decode_frame(builtin_codecs(), frame.data(), frame.size());
      EXPECT_EQ(back.type, m.type);
      EXPECT_EQ(back.meta_sender, sender);
      EXPECT_TRUE(bodies_equal(type_of(*c), m.body, back.body))
          << type_name(type_of(*c)) << " iter " << iter;
    }
  }
}

TEST(Codec, ControlFramesRoundTripAndNeverCollideWithBodies) {
  const auto hello = encode_control_frame(kTagHello, 3, 17);
  EXPECT_EQ(peek_tag(hello.data(), hello.size()), kTagHello);
  const Message m = decode_frame(builtin_codecs(), hello.data(), hello.size());
  EXPECT_EQ(m.meta_sender, 3u);
  for (const BodyCodec* c : builtin_codecs().all()) EXPECT_LT(c->tag, kCtrlTagFirst);
}

TEST(Codec, UnregisteredMessageTypeIsReportedNotEncoded) {
  const Message m = make_message(MsgType::kTest0, AliveMsg{1});
  EXPECT_THROW(encode_frame(builtin_codecs(), m, 0, 1), CodecError);
  EXPECT_EQ(encoded_frame_size(builtin_codecs(), m, 0, 1), std::nullopt);
}

// ------------------------------------------------------------ tag table

TEST(Codec, EveryMsgTypeHasAUniqueNonEmptyName) {
  std::set<std::string> names;
  std::set<std::uint8_t> tags;
  for (const MsgTypeName& e : kMsgTypeNames) {
    EXPECT_NE(e.type, MsgType::kNone);
    EXPECT_NE(std::string(e.name), "") << int{tag_of(e.type)};
    EXPECT_EQ(std::string(type_name(e.type)), e.name);
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate name " << e.name;
    EXPECT_TRUE(tags.insert(tag_of(e.type)).second) << "duplicate tag " << int{tag_of(e.type)};
    EXPECT_LT(tag_of(e.type), kCtrlTagFirst) << e.name;
  }
  EXPECT_EQ(std::string(type_name(MsgType::kNone)), "");
  EXPECT_EQ(std::string(type_name(MsgType{kTagRelAck})), "");
}

TEST(Codec, WireKindsHaveCodecsAndLocalKindsNone) {
  for (const MsgTypeName& e : kMsgTypeNames) {
    const bool wire = tag_of(e.type) < kFirstLocalTag;
    EXPECT_EQ(builtin_codecs().by_tag(tag_of(e.type)) != nullptr, wire) << e.name;
  }
  for (const BodyCodec* c : builtin_codecs().all()) {
    EXPECT_LT(c->tag, kFirstLocalTag);
    EXPECT_NE(std::string(type_name(type_of(*c))), "") << "codec tag " << int{c->tag};
  }
}

TEST(Codec, RegistryRefusesLocalAndControlRangeTags) {
  CodecRegistry reg;
  BodyCodec local;
  local.tag = tag_of(MsgType::kFloodEst);
  EXPECT_THROW(reg.add(local), std::logic_error);
  BodyCodec ctrl;
  ctrl.tag = kTagHello;
  EXPECT_THROW(reg.add(ctrl), std::logic_error);
  BodyCodec ok;
  ok.tag = tag_of(MsgType::kAlive);
  reg.add(ok);
  EXPECT_THROW(reg.add(ok), std::logic_error);  // duplicate
  EXPECT_EQ(reg.by_tag(tag_of(MsgType::kAlive))->tag, tag_of(MsgType::kAlive));
  EXPECT_EQ(reg.by_tag(tag_of(MsgType::kCoord)), nullptr);
}

// Broadcasts one message of kind `t` (with an ALIVE body) at start.
class BroadcastOnce final : public Process {
 public:
  explicit BroadcastOnce(MsgType t) : t_(t) {}
  void on_start(Env& env) override { env.broadcast(make_message(t_, AliveMsg{1})); }
  void on_message(Env&, const Message&) override {}
  void on_timer(Env&, TimerId) override {}

 private:
  MsgType t_;
};

// Bytes the simulator's meter charges for one broadcast of kind `t` by a
// lone process (one copy: itself).
std::uint64_t sim_metered_bytes(MsgType t) {
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  sys.set_process(0, std::make_unique<BroadcastOnce>(t));
  sys.start();
  sys.run_until(5);
  const NetworkStats st = sys.net_stats();
  EXPECT_EQ(st.broadcasts_by_type.at(type_name(t)), 1u);
  return st.bytes_sent;
}

TEST(Codec, CodecLessKindsThrowOnEncodeAndMeterZeroBytesInTheSim) {
  for (const MsgTypeName& e : kMsgTypeNames) {
    if (tag_of(e.type) < kFirstLocalTag) continue;
    const Message m = make_message(e.type, AliveMsg{1});
    EXPECT_THROW(encode_frame(builtin_codecs(), m, 0, 1), CodecError) << e.name;
    EXPECT_EQ(encoded_frame_size(builtin_codecs(), m, 0, 1), std::nullopt) << e.name;
  }
  // The simulator's byte meter charges a local-range kind 0 bytes and an
  // ALIVE with the same body its v1 frame size.
  for (const MsgTypeName& e : kMsgTypeNames) {
    if (tag_of(e.type) >= kFirstLocalTag) {
      EXPECT_EQ(sim_metered_bytes(e.type), 0u) << e.name;
    }
  }
  const Message alive = make_message(MsgType::kAlive, AliveMsg{1});
  EXPECT_EQ(sim_metered_bytes(MsgType::kAlive), *encoded_frame_size(builtin_codecs(), alive, 0, 1));
}

// --------------------------------------------------- malformed rejection

std::vector<std::uint8_t> sample_frame() {
  const Message m = make_message(MsgType::kPolling, PollingMsg{7, 42});
  return encode_frame(builtin_codecs(), m, 2, 42);
}

TEST(Codec, EveryTruncationOfAValidFrameIsRejected) {
  const auto frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(builtin_codecs(), frame.data(), len), CodecError) << "len=" << len;
  }
}

TEST(Codec, EverySingleByteCorruptionIsRejectedOrEqual) {
  // Flipping any byte must either fail the checksum/structure or decode to
  // the same value (impossible here: FNV-1a covers every byte, so any flip
  // is caught). The point is NO undefined behaviour on arbitrary input.
  const auto frame = sample_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x5A;
    EXPECT_THROW(decode_frame(builtin_codecs(), bad.data(), bad.size()), CodecError)
        << "byte " << i;
  }
}

TEST(Codec, SeededRandomGarbageNeverCrashesTheDecoder) {
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.index(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    // Valid magic sometimes, to reach the deeper validation layers.
    if (junk.size() >= 4 && rng.chance(0.5)) {
      junk[0] = kWireMagic0;
      junk[1] = kWireMagic1;
      junk[2] = kWireVersion;
    }
    try {
      (void)decode_frame(builtin_codecs(), junk.data(), junk.size());
    } catch (const CodecError&) {
      // expected for essentially all inputs
    }
  }
}

TEST(Codec, WrongVersionAndTrailingBytesAreRejected) {
  auto frame = sample_frame();
  auto wrong_version = frame;
  wrong_version[2] = kWireVersion + 1;
  EXPECT_THROW(decode_frame(builtin_codecs(), wrong_version.data(), wrong_version.size()),
               CodecError);
  auto trailing = frame;
  trailing.push_back(0);
  EXPECT_THROW(decode_frame(builtin_codecs(), trailing.data(), trailing.size()), CodecError);
}

// ------------------------------------------- trace-context extension

TEST(Codec, TracedFrameRoundTripsCausalContextAndUntracedStaysBare) {
  Message m = make_message(MsgType::kPolling, PollingMsg{7, 42});
  // Node index folded into the high 16 bits; values chosen to need
  // multi-byte varints.
  m.meta_causal_id = (std::uint64_t{3} << 48) | 170739;
  m.meta_causal_parent = (std::uint64_t{1} << 48) | 5;
  m.meta_causal_clock = 99'999;
  const auto traced = encode_frame(builtin_codecs(), m, 2, 42);
  EXPECT_EQ(traced[2], kWireVersion | kWireTracedFlag);
  const Message back = decode_frame(builtin_codecs(), traced.data(), traced.size());
  EXPECT_EQ(back.meta_causal_id, m.meta_causal_id);
  EXPECT_EQ(back.meta_causal_parent, m.meta_causal_parent);
  EXPECT_EQ(back.meta_causal_clock, m.meta_causal_clock);
  EXPECT_EQ(back.meta_sender, 2u);
  EXPECT_TRUE(bodies_equal(MsgType::kPolling, m.body, back.body));

  // The same message without a lineage id encodes the bare v1 frame: no
  // flag, no extension bytes, zeroed meta on decode.
  const Message plain = make_message(MsgType::kPolling, PollingMsg{7, 42});
  const auto bare = encode_frame(builtin_codecs(), plain, 2, 42);
  EXPECT_EQ(bare[2], kWireVersion);
  EXPECT_LT(bare.size(), traced.size());
  const Message pback = decode_frame(builtin_codecs(), bare.data(), bare.size());
  EXPECT_EQ(pback.meta_causal_id, 0u);
  EXPECT_EQ(pback.meta_causal_clock, 0u);

  // Byte metering deliberately ignores the extension so counters stay
  // identical with tracing on or off.
  const auto metered = encoded_frame_size(builtin_codecs(), m, 2, 42);
  ASSERT_TRUE(metered.has_value());
  EXPECT_EQ(*metered, bare.size());
}

TEST(Codec, SeededFuzzRoundTripsTracedFramesOfEveryBodyType) {
  Rng rng(20260809);
  for (const BodyCodec* c : builtin_codecs().all()) {
    for (int iter = 0; iter < 50; ++iter) {
      Message m = random_body(type_of(*c), rng);
      m.meta_causal_id = (static_cast<std::uint64_t>(rng.index(64)) << 48) |
                         (1 + static_cast<std::uint64_t>(rng.uniform(0, 1 << 20)));
      if (rng.chance(0.7)) {
        m.meta_causal_parent = (static_cast<std::uint64_t>(rng.index(64)) << 48) |
                               static_cast<std::uint64_t>(rng.uniform(0, 1 << 20));
      }
      m.meta_causal_clock = static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
      const auto frame = encode_frame(builtin_codecs(), m, 1, 9);
      const Message back = decode_frame(builtin_codecs(), frame.data(), frame.size());
      EXPECT_EQ(back.meta_causal_id, m.meta_causal_id)
          << type_name(type_of(*c)) << " iter " << iter;
      EXPECT_EQ(back.meta_causal_parent, m.meta_causal_parent);
      EXPECT_EQ(back.meta_causal_clock, m.meta_causal_clock);
      EXPECT_TRUE(bodies_equal(type_of(*c), m.body, back.body))
          << type_name(type_of(*c)) << " iter " << iter;
    }
  }
}

std::vector<std::uint8_t> sample_traced_frame() {
  Message m = make_message(MsgType::kPolling, PollingMsg{7, 42});
  m.meta_causal_id = (std::uint64_t{2} << 48) | 9;
  m.meta_causal_parent = (std::uint64_t{2} << 48) | 4;
  m.meta_causal_clock = 77;
  return encode_frame(builtin_codecs(), m, 2, 42);
}

TEST(Codec, EveryTruncationOfATracedFrameIsRejected) {
  const auto frame = sample_traced_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(builtin_codecs(), frame.data(), len), CodecError) << "len=" << len;
  }
}

TEST(Codec, EverySingleByteCorruptionOfATracedFrameIsRejected) {
  const auto frame = sample_traced_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x5A;
    EXPECT_THROW(decode_frame(builtin_codecs(), bad.data(), bad.size()), CodecError)
        << "byte " << i;
  }
}

// ------------------------------------------------ send-path allocation

// Every send-path buffer is reserved at its final size before it is
// written, so it is allocated once and never regrown: the capacity the
// caller receives is exactly the frame's length.
TEST(Codec, FramesAreAllocatedAtTheirExactSize) {
  Rng rng(11);
  for (const BodyCodec* c : builtin_codecs().all()) {
    Message m = random_body(type_of(*c), rng);
    const auto plain = encode_frame(builtin_codecs(), m, 3, 300);
    EXPECT_EQ(plain.capacity(), plain.size()) << type_name(type_of(*c));
    m.meta_causal_id = (std::uint64_t{3} << 48) | 170739;
    m.meta_causal_parent = 5;
    m.meta_causal_clock = 99'999;
    const auto traced = encode_frame(builtin_codecs(), m, 3, 300);
    EXPECT_EQ(traced.capacity(), traced.size()) << type_name(type_of(*c));

    RelHeader h;
    h.epoch = 2;
    h.seq = 1'000'000;
    h.ack_cum = 130;
    h.ack_bits = ~0ull;
    for (const auto& inner : {plain, traced}) {
      const auto wrapped = rel_wrap(inner, h);
      EXPECT_EQ(wrapped.capacity(), wrapped.size()) << type_name(type_of(*c));
    }
  }

  const auto hello = encode_control_frame(kTagHello, 1, 17);
  EXPECT_EQ(hello.capacity(), hello.size());
  const auto ack_body = rel_ack_body(RelAckBody{4, 1u << 20, 0b1011});
  EXPECT_EQ(ack_body.capacity(), ack_body.size());
  const auto ack = encode_control_frame(kTagRelAck, 1, 17, ack_body);
  EXPECT_EQ(ack.capacity(), ack.size());
  const auto rejoin = rejoin_body(1'234'567);
  EXPECT_EQ(rejoin.capacity(), rejoin.size());

  BatchWriter w;
  for (int i = 0; i < 40; ++i) w.add(i % 2 == 0 ? hello : ack);
  const auto datagram = w.take();
  EXPECT_EQ(datagram.capacity(), datagram.size());
}

// ------------------------------------------------------- batch envelope

TEST(Batch, RoundTripsMultipleFrames) {
  BatchWriter w;
  EXPECT_TRUE(w.empty());
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const BodyCodec* c : builtin_codecs().all()) {
    const Message m = random_body(type_of(*c), rng);
    frames.push_back(encode_frame(builtin_codecs(), m, 0, 9));
    w.add(frames.back());
  }
  EXPECT_EQ(w.frames(), frames.size());
  const auto datagram = w.take();
  EXPECT_TRUE(w.empty());
  const auto views = split_batch(datagram.data(), datagram.size());
  ASSERT_EQ(views.size(), frames.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i].len, frames[i].size());
    EXPECT_EQ(std::vector<std::uint8_t>(views[i].data, views[i].data + views[i].len), frames[i]);
    // Each frame still decodes independently out of the batch.
    EXPECT_NO_THROW((void)decode_frame(builtin_codecs(), views[i].data, views[i].len));
  }
}

// wire_size() is computed without building the envelope; it must agree
// with take() on both sides of the one-to-two-byte frame-count varint.
TEST(Batch, WireSizeMatchesTakeAcrossTheCountVarintBoundary) {
  const auto frame = sample_frame();
  BatchWriter w;
  for (const std::size_t count : {0, 1, 127, 128, 129, 300}) {
    for (std::size_t i = 0; i < count; ++i) w.add(frame);
    const std::size_t predicted = w.wire_size();
    const auto datagram = w.take();
    EXPECT_EQ(predicted, datagram.size()) << "count=" << count;
    EXPECT_EQ(w.wire_size(), 4u) << "count=" << count;  // reset: header with a zero count
    if (count == 0) continue;
    const auto views = split_batch(datagram.data(), datagram.size());
    EXPECT_EQ(views.size(), count);
  }
}

TEST(Batch, MalformedEnvelopesAreRejected) {
  BatchWriter w;
  w.add(sample_frame());
  const auto datagram = w.take();
  // Truncations.
  for (std::size_t len = 0; len < datagram.size(); ++len) {
    EXPECT_THROW((void)split_batch(datagram.data(), len), CodecError) << "len=" << len;
  }
  // Trailing garbage.
  auto trailing = datagram;
  trailing.push_back(0x7F);
  EXPECT_THROW((void)split_batch(trailing.data(), trailing.size()), CodecError);
  // A data frame is not a batch.
  const auto frame = sample_frame();
  EXPECT_THROW((void)split_batch(frame.data(), frame.size()), CodecError);
}

}  // namespace
}  // namespace hds::net
