#include "net/codec.h"

namespace hds::net {

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x01000193u;
  }
  return h;
}

void CodecRegistry::add(BodyCodec c) {
  static_assert(kFirstLocalTag < kCtrlTagFirst, "one bound covers both reserved ranges");
  if (c.tag >= kFirstLocalTag) throw std::logic_error("codec tag in local or control range");
  if (slot_[c.tag] != 0) throw std::logic_error("duplicate codec tag " + std::to_string(c.tag));
  const std::uint8_t tag = c.tag;
  codecs_.push_back(std::move(c));
  slot_[tag] = static_cast<std::uint8_t>(codecs_.size());
}

std::vector<const BodyCodec*> CodecRegistry::all() const {
  std::vector<const BodyCodec*> out;
  out.reserve(codecs_.size());
  for (std::size_t tag = 0; tag < slot_.size(); ++tag) {
    if (const BodyCodec* c = by_tag(static_cast<std::uint8_t>(tag))) out.push_back(c);
  }
  return out;
}

namespace {

std::vector<std::uint8_t> finish_frame(std::uint8_t tag, ProcIndex sender_index, Id sender_id,
                                       const std::vector<std::uint8_t>& body,
                                       const Message* traced = nullptr) {
  WireWriter w;
  w.u8(kWireMagic0);
  w.u8(kWireMagic1);
  const bool tracing = traced != nullptr && traced->meta_causal_id != 0;
  w.u8(tracing ? static_cast<std::uint8_t>(kWireVersion | kWireTracedFlag) : kWireVersion);
  w.u8(tag);
  w.varint(sender_index);
  w.varint(sender_id);
  if (tracing) {
    w.varint(traced->meta_causal_id);
    w.varint(traced->meta_causal_parent);
    w.varint(traced->meta_causal_clock);
  }
  w.varint(body.size());
  w.bytes(body.data(), body.size());
  const std::uint32_t sum = fnv1a(w.data().data(), w.size());
  w.u32_fixed(sum);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const CodecRegistry& reg, const Message& m,
                                       ProcIndex sender_index, Id sender_id) {
  const BodyCodec* c = reg.by_tag(tag_of(m.type));
  if (c == nullptr) {
    throw CodecError("no codec registered for type " + std::to_string(tag_of(m.type)) + " " +
                     type_name(m.type));
  }
  WireWriter body;
  c->encode(m.body, body);
  return finish_frame(c->tag, sender_index, sender_id, body.data(), &m);
}

std::vector<std::uint8_t> encode_control_frame(std::uint8_t tag, ProcIndex sender_index,
                                               Id sender_id) {
  if (tag < kCtrlTagFirst) throw std::logic_error("control frame with codec-range tag");
  return finish_frame(tag, sender_index, sender_id, {});
}

std::vector<std::uint8_t> encode_control_frame(std::uint8_t tag, ProcIndex sender_index,
                                               Id sender_id,
                                               const std::vector<std::uint8_t>& body) {
  if (tag < kCtrlTagFirst) throw std::logic_error("control frame with codec-range tag");
  return finish_frame(tag, sender_index, sender_id, body);
}

std::optional<ControlBody> peek_control_body(const std::uint8_t* data, std::size_t len) {
  if (len < 4 + 4 || data[0] != kWireMagic0 || data[1] != kWireMagic1 ||
      (data[2] & kWireVersionMask) != kWireVersion || data[3] < kCtrlTagFirst) {
    return std::nullopt;
  }
  try {
    WireReader r(data + 4, len - 4 - 4);
    r.varint();  // sender index
    r.varint();  // sender id
    if ((data[2] & kWireTracedFlag) != 0) {
      for (int i = 0; i < 3; ++i) r.varint();
    }
    if ((data[2] & kWireRelFlag) != 0) {
      for (int i = 0; i < 6; ++i) r.varint();
    }
    const std::uint64_t body_len = r.varint();
    if (body_len != r.remaining()) return std::nullopt;
    return ControlBody{r.cursor(), static_cast<std::size_t>(body_len)};
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

std::optional<std::uint8_t> peek_tag(const std::uint8_t* data, std::size_t len) {
  if (len < 4 || data[0] != kWireMagic0 || data[1] != kWireMagic1 ||
      (data[2] & kWireVersionMask) != kWireVersion) {
    return std::nullopt;
  }
  return data[3];
}

Message decode_frame(const CodecRegistry& reg, const std::uint8_t* data, std::size_t len) {
  if (len < 4 + 4) throw CodecError("frame shorter than header + checksum");
  if (data[0] != kWireMagic0 || data[1] != kWireMagic1) throw CodecError("bad frame magic");
  if ((data[2] & kWireVersionMask) != kWireVersion) {
    throw CodecError("unsupported frame version " + std::to_string(data[2]));
  }
  const bool tracing = (data[2] & kWireTracedFlag) != 0;
  const std::uint32_t want = fnv1a(data, len - 4);
  WireReader tail(data + len - 4, 4);
  if (tail.u32_fixed() != want) throw CodecError("checksum mismatch");

  WireReader r(data + 4, len - 4 - 4);
  const std::uint8_t tag = data[3];
  const std::uint64_t sender_index = r.varint();
  const std::uint64_t sender_id = r.varint();
  (void)sender_id;  // the id rides for wire-level debugging; bodies carry
                    // whatever identity the algorithm needs, per the model
  std::uint64_t causal_id = 0;
  std::uint64_t causal_parent = 0;
  std::uint64_t causal_clock = 0;
  if (tracing) {
    causal_id = r.varint();
    causal_parent = r.varint();
    causal_clock = r.varint();
    if (causal_id == 0) throw CodecError("traced frame with zero lineage id");
  }
  if ((data[2] & kWireRelFlag) != 0) {
    // ARQ transport header: consumed here so framing stays validated; the
    // transport reads the values from the raw bytes via rel_peek() before
    // deciding whether this Message may be delivered.
    for (int i = 0; i < 6; ++i) r.varint();
  }
  const std::uint64_t body_len = r.varint();
  if (body_len != r.remaining()) throw CodecError("body length disagrees with frame length");
  if (tag >= kCtrlTagFirst) {
    Message m;
    m.type = MsgType{tag};
    m.meta_sender = static_cast<ProcIndex>(sender_index);
    return m;
  }
  const BodyCodec* c = reg.by_tag(tag);
  if (c == nullptr) throw CodecError("unknown body tag " + std::to_string(tag));
  WireReader body(r.cursor(), static_cast<std::size_t>(body_len));
  std::any value = c->decode(body);
  if (body.remaining() != 0) throw CodecError("trailing bytes after body");
  Message m;
  m.type = MsgType{tag};
  m.body = std::move(value);
  m.meta_sender = static_cast<ProcIndex>(sender_index);
  m.meta_causal_id = causal_id;
  m.meta_causal_parent = causal_parent;
  m.meta_causal_clock = causal_clock;
  return m;
}

std::optional<std::size_t> encoded_frame_size(const CodecRegistry& reg, const Message& m,
                                              ProcIndex sender_index, Id sender_id) {
  const BodyCodec* c = reg.by_tag(tag_of(m.type));
  if (c == nullptr) return std::nullopt;
  WireWriter body{WireWriter::CountOnly{}};
  c->encode(m.body, body);
  // magic(2) + version + tag + the sender varints + body length + body +
  // the trailing checksum.
  return 4 + varint_size(sender_index) + varint_size(sender_id) + varint_size(body.size()) +
         body.size() + 4;
}

// ------------------------------------------------------------- batching

void BatchWriter::add(const std::vector<std::uint8_t>& frame) {
  WireWriter w;
  w.varint(frame.size());
  w.bytes(frame.data(), frame.size());
  const auto& piece = w.data();
  frames_bytes_.insert(frames_bytes_.end(), piece.begin(), piece.end());
  ++count_;
}

std::size_t BatchWriter::wire_size() const {
  WireWriter header;
  header.u8(kWireMagic0);
  header.u8(kBatchMagic1);
  header.u8(kWireVersion);
  header.varint(count_);
  return header.size() + frames_bytes_.size();
}

std::vector<std::uint8_t> BatchWriter::take() {
  WireWriter w;
  w.u8(kWireMagic0);
  w.u8(kBatchMagic1);
  w.u8(kWireVersion);
  w.varint(count_);
  w.bytes(frames_bytes_.data(), frames_bytes_.size());
  frames_bytes_.clear();
  count_ = 0;
  return w.take();
}

std::vector<FrameView> split_batch(const std::uint8_t* data, std::size_t len) {
  WireReader r(data, len);
  if (r.u8() != kWireMagic0 || r.u8() != kBatchMagic1) throw CodecError("bad batch magic");
  const std::uint8_t version = r.u8();
  if (version != kWireVersion) {
    throw CodecError("unsupported batch version " + std::to_string(version));
  }
  const std::uint64_t count = r.varint();
  // A frame costs at least its length prefix byte; an absurd count is
  // rejected before any allocation sized by it.
  if (count > r.remaining()) throw CodecError("batch count exceeds payload");
  std::vector<FrameView> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t flen = r.varint();
    if (flen > r.remaining()) throw CodecError("frame length exceeds batch payload");
    out.push_back(FrameView{r.cursor(), static_cast<std::size_t>(flen)});
    r.skip(static_cast<std::size_t>(flen));
  }
  if (r.remaining() != 0) throw CodecError("trailing bytes after batch frames");
  return out;
}

}  // namespace hds::net
