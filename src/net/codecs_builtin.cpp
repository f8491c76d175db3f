// Builtin body codecs: one registration per wire MsgType in the library,
// kept next to the wire format they freeze. The MsgType values are the v1
// body tags (golden fixtures pin them) — see common/msg_type.h.
#include <set>

#include "common/label.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "net/codec.h"
#include "smr/types.h"

namespace hds::net {

namespace {

template <typename T>
const T& body_as(const std::any& body) {
  const T* p = std::any_cast<T>(&body);
  if (p == nullptr) throw CodecError("body type does not match registered codec");
  return *p;
}

void put_maybe(WireWriter& w, const MaybeValue& v) {
  w.u8(v.has_value() ? 1 : 0);
  if (v.has_value()) w.svarint(*v);
}

MaybeValue get_maybe(WireReader& r) {
  const std::uint8_t has = r.u8();
  if (has > 1) throw CodecError("bad optional marker");
  if (has == 0) return std::nullopt;
  return r.svarint();
}

// Length-prefixed label collection: varint count, then each label's
// canonical repr as a length-prefixed string (Fig. 7 labels are identifier
// multisets rendered through Label::of_multiset; the repr is the identity).
void put_labels(WireWriter& w, const std::set<Label>& labels) {
  w.varint(labels.size());
  for (const Label& l : labels) w.str(l.repr());
}

std::set<Label> get_labels(WireReader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) throw CodecError("label count exceeds remaining bytes");
  std::set<Label> out;
  for (std::uint64_t i = 0; i < count; ++i) out.insert(Label::from_repr(r.str()));
  return out;
}

// --- SMR nested frames (smr/types.h) ---

void put_smr_op(WireWriter& w, const smr::SmrOp& op) {
  w.varint(op.client);
  w.svarint(op.seq);
  w.svarint(op.key);
  w.svarint(op.val);
  w.varint(op.pad.size());
  for (const std::uint8_t b : op.pad) w.u8(b);
}

smr::SmrOp get_smr_op(WireReader& r) {
  smr::SmrOp op;
  op.client = r.varint();
  op.seq = r.svarint();
  op.key = r.svarint();
  op.val = r.svarint();
  const std::uint64_t pad = r.varint();
  if (pad > r.remaining()) throw CodecError("op padding exceeds remaining bytes");
  op.pad.reserve(pad);
  for (std::uint64_t i = 0; i < pad; ++i) op.pad.push_back(r.u8());
  return op;
}

void put_smr_ops(WireWriter& w, const std::vector<smr::SmrOp>& ops) {
  w.varint(ops.size());
  for (const smr::SmrOp& op : ops) put_smr_op(w, op);
}

std::vector<smr::SmrOp> get_smr_ops(WireReader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) throw CodecError("op count exceeds remaining bytes");
  std::vector<smr::SmrOp> ops;
  ops.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) ops.push_back(get_smr_op(r));
  return ops;
}

void put_smr_batch(WireWriter& w, const smr::SmrBatch& b) {
  w.svarint(b.id);
  put_smr_ops(w, b.ops);
}

smr::SmrBatch get_smr_batch(WireReader& r) {
  smr::SmrBatch b;
  b.id = r.svarint();
  b.ops = get_smr_ops(r);
  return b;
}

void put_smr_commits(WireWriter& w, const std::vector<smr::SmrCommitRec>& recs) {
  w.varint(recs.size());
  for (const smr::SmrCommitRec& c : recs) {
    w.svarint(c.slot);
    w.svarint(c.id);
  }
}

std::vector<smr::SmrCommitRec> get_smr_commits(WireReader& r) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) throw CodecError("commit count exceeds remaining bytes");
  std::vector<smr::SmrCommitRec> recs;
  recs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    smr::SmrCommitRec c;
    c.slot = r.svarint();
    c.id = r.svarint();
    recs.push_back(c);
  }
  return recs;
}

template <typename T>
BodyCodec codec(MsgType type, void (*enc)(const T&, WireWriter&), T (*dec)(WireReader&)) {
  BodyCodec c;
  c.tag = tag_of(type);
  c.encode = [enc](const std::any& body, WireWriter& w) { enc(body_as<T>(body), w); };
  c.decode = [dec](WireReader& r) -> std::any { return dec(r); };
  return c;
}

CodecRegistry build() {
  CodecRegistry reg;

  // --- failure-detector bodies ---
  reg.add(codec<AliveMsg>(
      MsgType::kAlive, [](const AliveMsg& m, WireWriter& w) { w.varint(m.id); },
      [](WireReader& r) { return AliveMsg{r.varint()}; }));
  reg.add(codec<ApAliveMsg>(
      MsgType::kApAlive, [](const ApAliveMsg&, WireWriter&) {},
      [](WireReader&) { return ApAliveMsg{}; }));
  reg.add(codec<HeartbeatMsg>(
      MsgType::kHeartbeat,
      [](const HeartbeatMsg& m, WireWriter& w) {
        w.varint(m.id);
        w.svarint(m.seq);
      },
      [](WireReader& r) {
        HeartbeatMsg m;
        m.id = r.varint();
        m.seq = r.svarint();
        return m;
      }));
  reg.add(codec<IdentMsg>(
      MsgType::kIdent, [](const IdentMsg& m, WireWriter& w) { w.varint(m.id); },
      [](WireReader& r) { return IdentMsg{r.varint()}; }));
  reg.add(codec<PollingMsg>(
      MsgType::kPolling,
      [](const PollingMsg& m, WireWriter& w) {
        w.svarint(m.r);
        w.varint(m.id);
      },
      [](WireReader& r) {
        PollingMsg m;
        m.r = r.svarint();
        m.id = r.varint();
        return m;
      }));
  reg.add(codec<PollReplyMsg>(
      MsgType::kPollReply,
      [](const PollReplyMsg& m, WireWriter& w) {
        w.svarint(m.lo);
        w.svarint(m.hi);
        w.varint(m.to_id);
        w.varint(m.from_id);
      },
      [](WireReader& r) {
        PollReplyMsg m;
        m.lo = r.svarint();
        m.hi = r.svarint();
        m.to_id = r.varint();
        m.from_id = r.varint();
        return m;
      }));

  // --- consensus bodies (Figs. 8 and 9) ---
  reg.add(codec<CoordMsg>(
      MsgType::kCoord,
      [](const CoordMsg& m, WireWriter& w) {
        w.varint(m.id);
        w.svarint(m.r);
        w.svarint(m.est);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        CoordMsg m;
        m.id = r.varint();
        m.r = r.svarint();
        m.est = r.svarint();
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<Ph0Msg>(
      MsgType::kPh0,
      [](const Ph0Msg& m, WireWriter& w) {
        w.svarint(m.r);
        w.svarint(m.est);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        Ph0Msg m;
        m.r = r.svarint();
        m.est = r.svarint();
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<Ph1Msg>(
      MsgType::kPh1,
      [](const Ph1Msg& m, WireWriter& w) {
        w.svarint(m.r);
        w.svarint(m.est);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        Ph1Msg m;
        m.r = r.svarint();
        m.est = r.svarint();
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<Ph2Msg>(
      MsgType::kPh2,
      [](const Ph2Msg& m, WireWriter& w) {
        w.svarint(m.r);
        put_maybe(w, m.est2);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        Ph2Msg m;
        m.r = r.svarint();
        m.est2 = get_maybe(r);
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<DecideMsg>(
      MsgType::kDecide,
      [](const DecideMsg& m, WireWriter& w) {
        w.svarint(m.v);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        DecideMsg m;
        m.v = r.svarint();
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<Ph1QMsg>(
      MsgType::kPh1Q,
      [](const Ph1QMsg& m, WireWriter& w) {
        w.varint(m.id);
        w.svarint(m.r);
        w.svarint(m.sr);
        put_labels(w, m.labels);
        w.svarint(m.est);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        Ph1QMsg m;
        m.id = r.varint();
        m.r = r.svarint();
        m.sr = r.svarint();
        m.labels = get_labels(r);
        m.est = r.svarint();
        m.instance = r.svarint();
        return m;
      }));
  reg.add(codec<Ph2QMsg>(
      MsgType::kPh2Q,
      [](const Ph2QMsg& m, WireWriter& w) {
        w.varint(m.id);
        w.svarint(m.r);
        w.svarint(m.sr);
        put_labels(w, m.labels);
        put_maybe(w, m.est2);
        w.svarint(m.instance);
      },
      [](WireReader& r) {
        Ph2QMsg m;
        m.id = r.varint();
        m.r = r.svarint();
        m.sr = r.svarint();
        m.labels = get_labels(r);
        m.est2 = get_maybe(r);
        m.instance = r.svarint();
        return m;
      }));

  // --- replicated-log bodies (src/smr/) ---
  reg.add(codec<smr::SmrAppendMsg>(
      MsgType::kSmrAppend,
      [](const smr::SmrAppendMsg& m, WireWriter& w) {
        w.svarint(m.epoch);
        w.svarint(m.slot);
        put_smr_batch(w, m.batch);
        put_smr_commits(w, m.commits);
      },
      [](WireReader& r) {
        smr::SmrAppendMsg m;
        m.epoch = r.svarint();
        m.slot = r.svarint();
        m.batch = get_smr_batch(r);
        m.commits = get_smr_commits(r);
        return m;
      }));
  reg.add(codec<smr::SmrAckMsg>(
      MsgType::kSmrAck,
      [](const smr::SmrAckMsg& m, WireWriter& w) {
        w.svarint(m.epoch);
        w.varint(m.replica);
        w.svarint(m.logged_through);
        w.svarint(m.applied_through);
        w.svarint(m.commit_frontier);
        put_smr_commits(w, m.commits);
        put_smr_ops(w, m.pending);
      },
      [](WireReader& r) {
        smr::SmrAckMsg m;
        m.epoch = r.svarint();
        m.replica = r.varint();
        m.logged_through = r.svarint();
        m.applied_through = r.svarint();
        m.commit_frontier = r.svarint();
        m.commits = get_smr_commits(r);
        m.pending = get_smr_ops(r);
        return m;
      }));
  reg.add(codec<smr::SmrNewEpochMsg>(
      MsgType::kSmrNewEpoch,
      [](const smr::SmrNewEpochMsg& m, WireWriter& w) {
        w.svarint(m.epoch);
        w.svarint(m.from_slot);
        w.varint(m.replica);
      },
      [](WireReader& r) {
        smr::SmrNewEpochMsg m;
        m.epoch = r.svarint();
        m.from_slot = r.svarint();
        m.replica = r.varint();
        return m;
      }));
  reg.add(codec<smr::SmrPromiseMsg>(
      MsgType::kSmrPromise,
      [](const smr::SmrPromiseMsg& m, WireWriter& w) {
        w.svarint(m.epoch);
        w.varint(m.replica);
        w.svarint(m.frontier);
        w.varint(m.entries.size());
        for (const smr::SmrLogRec& e : m.entries) {
          w.svarint(e.slot);
          w.svarint(e.epoch);
          w.u8(e.committed ? 1 : 0);
          put_smr_batch(w, e.batch);
        }
      },
      [](WireReader& r) {
        smr::SmrPromiseMsg m;
        m.epoch = r.svarint();
        m.replica = r.varint();
        m.frontier = r.svarint();
        const std::uint64_t count = r.varint();
        if (count > r.remaining()) throw CodecError("entry count exceeds remaining bytes");
        m.entries.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
          smr::SmrLogRec e;
          e.slot = r.svarint();
          e.epoch = r.svarint();
          const std::uint8_t c = r.u8();
          if (c > 1) throw CodecError("bad committed marker");
          e.committed = c == 1;
          e.batch = get_smr_batch(r);
          m.entries.push_back(std::move(e));
        }
        return m;
      }));
  reg.add(codec<smr::SmrProposeMsg>(
      MsgType::kSmrPropose,
      [](const smr::SmrProposeMsg& m, WireWriter& w) {
        w.svarint(m.epoch);
        w.svarint(m.slot);
        put_smr_batch(w, m.batch);
      },
      [](WireReader& r) {
        smr::SmrProposeMsg m;
        m.epoch = r.svarint();
        m.slot = r.svarint();
        m.batch = get_smr_batch(r);
        return m;
      }));

  return reg;
}

}  // namespace

const CodecRegistry& builtin_codecs() {
  static const CodecRegistry reg = build();
  return reg;
}

}  // namespace hds::net
