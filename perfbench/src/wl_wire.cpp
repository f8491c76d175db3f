// wire_replay: the deployment wire path without sockets or threads. The
// broadcast stream of a short smr_failover run is captured once (untimed),
// then replayed through n in-process ReliableChannels on a synthetic clock
// (one tick = 1 ms):
//   encode_frame -> wrap_data -> BatchWriter -> [seeded loss / reordering]
//   -> split_batch -> rel_peek -> decode_frame -> on_ack / on_data,
// plus tick() for retransmissions and standalone acks. It runs the same
// codec, batching and ARQ code as NetSystem's sender and receive threads.
#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "corrupt.h"
#include "net/codec.h"
#include "net/reliable.h"
#include "probe.h"
#include "wl_smr.h"

namespace pb {

namespace {

using hds::ProcIndex;
using hds::SimTime;

struct Captured {
  ProcIndex from = 0;
  SimTime at = 0;
  hds::Message m;
};

struct Stream {
  std::size_t n = 0;
  std::vector<hds::Id> ids;
  std::vector<Captured> sends;  // in send order
  std::uint64_t seed = 1;       // loss and reordering draws
};

// Records every broadcast its node makes, with the node's local time.
class CaptureEnv final : public hds::Env {
 public:
  CaptureEnv(hds::Env& inner, ProcIndex self, std::vector<Captured>& log)
      : inner_(inner), self_(self), log_(log) {}
  [[nodiscard]] hds::Id self_id() const override { return inner_.self_id(); }
  [[nodiscard]] SimTime local_now() const override { return inner_.local_now(); }
  hds::TimerId set_timer(SimTime d) override { return inner_.set_timer(d); }
  void broadcast(hds::Message m) override {
    log_.push_back(Captured{self_, inner_.local_now(), m});
    inner_.broadcast(std::move(m));
  }

 private:
  hds::Env& inner_;
  ProcIndex self_;
  std::vector<Captured>& log_;
};

class CaptureProcess final : public hds::Process {
 public:
  CaptureProcess(std::unique_ptr<hds::Process> inner, ProcIndex self, std::vector<Captured>& log)
      : inner_(std::move(inner)), self_(self), log_(log) {}
  void on_start(hds::Env& env) override {
    CaptureEnv e(env, self_, log_);
    inner_->on_start(e);
  }
  void on_message(hds::Env& env, const hds::Message& m) override {
    CaptureEnv e(env, self_, log_);
    inner_->on_message(e, m);
  }
  void on_timer(hds::Env& env, hds::TimerId id) override {
    CaptureEnv e(env, self_, log_);
    inner_->on_timer(e, id);
  }

 private:
  std::unique_ptr<hds::Process> inner_;
  ProcIndex self_;
  std::vector<Captured>& log_;
};

Stream capture(std::uint64_t seed, SimTime run_for) {
  SmrUnitParams p;
  p.run_for = run_for;
  p.seed = seed;
  Stream s;
  s.n = p.n;
  for (std::size_t i = 0; i < p.n; ++i) s.ids.push_back(i + 1);
  s.seed = derive_seed(seed, 0x77);
  const auto wrap = [&](ProcIndex i, std::unique_ptr<hds::Process> node) {
    return std::unique_ptr<hds::Process>(
        std::make_unique<CaptureProcess>(std::move(node), i, s.sends));
  };
  const UnitOut out = run_smr_unit(p, nullptr, wrap);
  if (!out.error.empty()) throw std::runtime_error("wire_replay capture: " + out.error);
  // Broadcasts are logged in dispatch order, which is time order.
  return s;
}

// A lossy link, so that every pass holds hundreds of retransmit recoveries
// and the latency tail (p99.9) rests on many of them rather than a few.
constexpr double kLoss = 0.08;     // per-datagram loss, both directions
constexpr double kReorder = 0.05;  // share of datagrams delayed by 1..4 extra ticks

hds::net::RelTime rel_time(SimTime t) {
  return hds::net::RelTime(std::chrono::milliseconds(t + 1000));
}

// Times one wire-layer call into `ns` when traced, and samples it as a
// span at `node` while the node's span sample has room.
template <typename F>
auto wire_call(Probe* probe, ProcIndex node, const char* name, std::uint64_t& ns, F&& f) {
  if (probe == nullptr) return f();
  NodeAcc& acc = probe->node(node);
  const std::int32_t prev = acc.open_span;
  const std::uint64_t t0 = now_ns();
  const std::int32_t span = probe->span_open(acc, name, t0);
  const auto close = [&] {
    const std::uint64_t t1 = now_ns();
    Probe::span_close(acc, span, prev, t1);
    ns += t1 - t0;
  };
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    close();
  } else {
    auto r = f();
    close();
    return r;
  }
}

struct Datagram {
  ProcIndex from = 0;
  ProcIndex to = 0;
  std::vector<std::uint8_t> bytes;
};

UnitOut replay(const Stream& s, Probe* probe) {
  namespace net = hds::net;
  UnitOut out;
  const std::size_t n = s.n;
  const std::uint64_t w0 = now_ns();

  // ---- set-up: the channels and per-link batchers
  std::vector<std::unique_ptr<net::ReliableChannel>> ch;
  for (ProcIndex i = 0; i < n; ++i) {
    net::RelConfig rc;
    rc.enabled = true;
    rc.window = 4096;  // never abandon a frame: delivery must be exactly-once
    rc.reorder_buffer = 4096;
    // Timers scaled to the replay's 1-tick hop (RTT of 2-6 ticks); the
    // low ceiling keeps a loss streak from backing off past a LAN timescale.
    rc.rto_initial_ms = 20;
    rc.rto_min_ms = 5;
    rc.rto_max_ms = 20;
    rc.seed = derive_seed(s.seed, i);
    ch.push_back(std::make_unique<net::ReliableChannel>(rc, i, s.ids[i], n, 1, nullptr));
  }
  std::vector<net::BatchWriter> writers(n * n);
  const std::uint64_t r0 = now_ns();
  out.setup_s = static_cast<double>(r0 - w0) * 1e-9;

  // ---- run phase
  const std::uint64_t a0 = alloc_count();
  const double c0 = process_cpu_s();
  std::uint64_t enc_ns = 0, dec_ns = 0, batch_ns = 0, arq_ns = 0;
  std::uint64_t enc_calls = 0, dec_calls = 0, datagrams = 0, frames = 0, data_frames = 0;
  std::uint64_t frame_bytes = 0;
  hds::Rng rng(s.seed);
  std::map<SimTime, std::vector<Datagram>> in_flight;
  // Per link (from * n + to): the frames of each broadcast of `from` in
  // send order, and what the receiver handed up, with the tick.
  std::vector<std::vector<std::vector<std::uint8_t>>> sent(n);
  std::vector<std::vector<hds::Message>> got(n * n);
  std::vector<std::vector<SimTime>> got_at(n * n);
  std::vector<std::vector<SimTime>> sent_at(n);
  std::vector<std::vector<std::size_t>> first_tx(n * n);  // msg indices in the open batch
  std::vector<std::vector<bool>> first_lost(n * n);

  const auto add_frame = [&](ProcIndex from, ProcIndex to, const std::vector<std::uint8_t>& f) {
    ++frames;
    frame_bytes += f.size();
    wire_call(probe, from, "net.batch", batch_ns, [&] { writers[from * n + to].add(f); });
  };

  std::size_t next = 0;
  const SimTime last_send = s.sends.empty() ? 0 : s.sends.back().at;
  for (SimTime t = 0;; ++t) {
    const net::RelTime now = rel_time(t);
    // 1. arrivals
    if (auto it = in_flight.find(t); it != in_flight.end()) {
      for (Datagram& dg : it->second) {
        const std::vector<net::FrameView> fv =
            wire_call(probe, dg.to, "net.batch", batch_ns,
                      [&] { return net::split_batch(dg.bytes.data(), dg.bytes.size()); });
        for (const net::FrameView& f : fv) {
          const auto tag = net::peek_tag(f.data, f.len);
          ++dec_calls;
          hds::Message m = wire_call(probe, dg.to, "net.decode", dec_ns, [&] {
            return net::decode_frame(net::builtin_codecs(), f.data, f.len);
          });
          if (tag && *tag == net::kTagRelAck) {
            wire_call(probe, dg.to, "net.arq", arq_ns, [&] {
              const auto body = net::peek_control_body(f.data, f.len);
              const auto ack = body ? net::parse_rel_ack_body(body->data, body->len) : std::nullopt;
              if (ack) ch[dg.to]->on_ack(dg.from, ack->ack_epoch, ack->ack_cum, ack->ack_bits, now);
            });
            continue;
          }
          std::vector<hds::Message> ready = wire_call(probe, dg.to, "net.arq", arq_ns, [&] {
            const auto h = net::rel_peek(f.data, f.len);
            if (!h) throw std::runtime_error("wire_replay: data frame without an ARQ header");
            (void)ch[dg.to]->note_peer_epoch(dg.from, h->epoch, now);
            ch[dg.to]->on_ack(dg.from, h->ack_epoch, h->ack_cum, h->ack_bits, now);
            return ch[dg.to]->on_data(dg.from, *h, std::move(m), now);
          });
          const std::size_t link = dg.from * n + dg.to;
          for (hds::Message& r : ready) {
            got[link].push_back(std::move(r));
            got_at[link].push_back(t);
          }
        }
      }
      in_flight.erase(it);
    }
    // 2. first transmissions of the broadcasts made at this tick
    for (; next < s.sends.size() && s.sends[next].at == t; ++next) {
      const Captured& c = s.sends[next];
      ++enc_calls;
      std::vector<std::uint8_t> frame = wire_call(probe, c.from, "net.encode", enc_ns, [&] {
        return net::encode_frame(net::builtin_codecs(), c.m, c.from, s.ids[c.from]);
      });
      for (ProcIndex to = 0; to < n; ++to) {
        if (to == c.from) continue;
        const std::vector<std::uint8_t> wrapped =
            wire_call(probe, c.from, "net.arq", arq_ns,
                      [&] { return ch[c.from]->wrap_data(to, c.m.type, frame, now); });
        ++data_frames;
        first_tx[c.from * n + to].push_back(sent[c.from].size());
        add_frame(c.from, to, wrapped);
      }
      sent_at[c.from].push_back(t);
      sent[c.from].push_back(std::move(frame));
    }
    // 3. due retransmissions and standalone acks
    for (ProcIndex i = 0; i < n; ++i) {
      const std::vector<net::RelSend> due = wire_call(probe, i, "net.arq", arq_ns, [&] {
        const auto d = ch[i]->next_deadline();
        return d && *d <= now ? ch[i]->tick(now) : std::vector<net::RelSend>{};
      });
      for (const net::RelSend& rs : due) add_frame(i, rs.to, rs.frame);
    }
    // 4. one datagram per link with frames; the seeded lossy wire
    for (ProcIndex from = 0; from < n; ++from) {
      for (ProcIndex to = 0; to < n; ++to) {
        const std::size_t link = from * n + to;
        if (writers[link].empty()) continue;
        std::vector<std::uint8_t> bytes =
            wire_call(probe, from, "net.batch", batch_ns, [&] { return writers[link].take(); });
        ++datagrams;
        const bool lost = rng.chance(kLoss);
        for (const std::size_t k : first_tx[link]) {
          if (first_lost[link].size() <= k) first_lost[link].resize(k + 1, false);
          first_lost[link][k] = lost;
        }
        first_tx[link].clear();
        if (lost) continue;
        const SimTime extra = rng.chance(kReorder) ? rng.uniform(1, 4) : 0;
        in_flight[t + 1 + extra].push_back(Datagram{from, to, std::move(bytes)});
      }
    }
    if (t > last_send && in_flight.empty()) {
      bool idle = true;
      for (auto& c : ch) idle = idle && !c->next_deadline().has_value();
      if (idle) break;
    }
    if (t > last_send + 100'000) throw std::runtime_error("wire_replay: the replay never drained");
  }
  const std::uint64_t r1 = now_ns();
  out.run_s = static_cast<double>(r1 - r0) * 1e-9;
  out.cpu_s = process_cpu_s() - c0;
  out.allocs = alloc_count() - a0;
  if (probe != nullptr) {
    probe->run_ns += r1 - r0;
    probe->encode_ns += enc_ns;
    probe->encode_calls += enc_calls;
    probe->decode_ns += dec_ns;
    probe->decode_calls += dec_calls;
    probe->batch_ns += batch_ns;
    probe->batch_datagrams += datagrams;
    probe->arq_ns += arq_ns;
  }

  // ---- integrity: every link delivered exactly the sender's broadcasts,
  // once each, in order (re-encoded bytes equal the frames sent).
  if (g_corrupt && !got[1].empty()) got[1].push_back(got[1].front());  // a duplicate delivery
  Digest d;
  std::uint64_t retransmits = 0, acks = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    const net::RelStats st = ch[i]->stats();
    retransmits += st.retransmits;
    acks += st.acks_sent;
  }
  for (ProcIndex from = 0; from < n && out.error.empty(); ++from) {
    for (ProcIndex to = 0; to < n; ++to) {
      if (to == from) continue;
      const std::size_t link = from * n + to;
      out.attempted += sent[from].size();
      if (got[link].size() != sent[from].size()) {
        out.error = "wire_replay: link " + std::to_string(from) + "->" + std::to_string(to) +
                    " delivered " + std::to_string(got[link].size()) + " of " +
                    std::to_string(sent[from].size()) + " messages";
        break;
      }
      for (std::size_t k = 0; k < got[link].size(); ++k) {
        if (net::encode_frame(net::builtin_codecs(), got[link][k], from, s.ids[from]) !=
            sent[from][k]) {
          out.error = "wire_replay: link " + std::to_string(from) + "->" + std::to_string(to) +
                      " delivered message " + std::to_string(k) + " out of order";
          break;
        }
        const double lat = static_cast<double>(got_at[link][k] - sent_at[from][k]);
        out.latency.push_back(lat);
        if (k < first_lost[link].size() && first_lost[link][k]) out.unavailable.push_back(lat);
        d.add_d(lat);
      }
      out.work += got[link].size();
    }
  }
  out.failed = out.error.empty() ? 0 : out.attempted;
  out.facts["units"] = 1;
  out.facts["net.frames"] = static_cast<double>(frames);
  out.facts["net.data_frames"] = static_cast<double>(data_frames);
  out.facts["net.datagrams"] = static_cast<double>(datagrams);
  out.facts["net.frame_bytes"] = static_cast<double>(frame_bytes);
  out.facts["net.retransmits"] = static_cast<double>(retransmits);
  out.facts["net.acks"] = static_cast<double>(acks);
  d.add(frames);
  d.add(datagrams);
  d.add(frame_bytes);
  d.add(retransmits);
  d.add(acks);
  d.add(out.work);
  out.digest = d.value();
  out.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return out;
}

class WirePlan final : public Plan {
 public:
  WirePlan(std::uint64_t seed, bool reduced) {
    const std::size_t units = reduced ? 2 : 6;
    for (std::size_t u = 0; u < units; ++u) {
      streams_.push_back(capture(derive_seed(seed, u), reduced ? 800 : 1600));
    }
  }

  [[nodiscard]] std::size_t units() const override { return streams_.size(); }
  UnitOut run(std::size_t u, Probe* probe) override { return replay(streams_.at(u), probe); }

  void warmup() override {
    const UnitOut out = replay(streams_.front(), nullptr);
    if (!out.error.empty()) throw std::runtime_error(out.error);
  }

  // There is no library entry point for the wire path; the stream itself
  // comes from the smr_failover assembly, so that equivalence is checked.
  std::string harness_check() override {
    SmrUnitParams p;
    p.run_for = 1600;
    p.seed = derive_seed(streams_.front().seed, 1);
    const UnitOut mine = run_smr_unit(p, nullptr);
    const hds::smr::SmrSimResult h = hds::smr::run_smr_sim(smr_harness_params(p));
    if (h.broadcasts != mine.broadcasts) {
      return "wire_replay: captured smr_failover stream differs from run_smr_sim";
    }
    return {};
  }

 private:
  std::vector<Stream> streams_;
};

}  // namespace

std::unique_ptr<Plan> make_wire_replay(std::uint64_t seed, bool reduced) {
  return std::make_unique<WirePlan>(seed, reduced);
}

}  // namespace pb
