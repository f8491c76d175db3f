#include "net/net_system.h"

#include "obs/profiler.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

#include "net/codec.h"

namespace hds::net {

namespace {
using Clock = std::chrono::steady_clock;

// Datagrams read per loop turn before the other stages get a turn; a
// flooding peer then delays timers and sends by one bounded drain at most.
constexpr int kMaxRecvPerTurn = 256;
}  // namespace

// The local process and its time-ordered mailbox (handlers, timers and
// queries). The loop thread dispatches; query()/crash() reach the mailbox
// from other threads under mu_.
class NetSystem::Node {
 public:
  explicit Node(NetSystem& sys) : sys_(sys), env_(*this) {}

  void install(std::unique_ptr<Process> p) { proc_ = std::move(p); }
  [[nodiscard]] bool installed() const { return proc_ != nullptr; }

  // on_start is enqueued at `front` (the system's epoch, which precedes
  // every possible delivery timestamp) as dispatch opens, so frames that
  // arrived during the peer barrier dispatch after it. Queued under the
  // same lock that opens dispatch, so the loop never sees one without the
  // other.
  void start(Clock::time_point front) {
    {
      std::lock_guard lk(mu_);
      queue_.push(Item{front, seq_++, Task{[this](Process& p, Env& e) {
                         sys_.note_start();
                         HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
                         p.on_start(e);
                       }}});
      started_ = true;
    }
    sys_.waker_.notify();
  }

  // Drops every queued task without the loop's help: a query waiting in the
  // mailbox gets its broken promise even while a handler holds the loop.
  void crash() {
    std::lock_guard lk(mu_);
    crashed_ = true;
    queue_ = {};
  }

  // After the loop has exited nothing dispatches again: fail the queued
  // queries and refuse new tasks, as a crash does.
  void close() {
    std::lock_guard lk(mu_);
    closed_ = true;
    queue_ = {};
  }

  [[nodiscard]] bool crashed() const {
    std::lock_guard lk(mu_);
    return crashed_;
  }

  // Loop thread only (a delivery is due at once; the loop runs it next).
  void deliver(Clock::time_point at, std::shared_ptr<const Message> m) {
    enqueue(at, Task{[this, m = std::move(m)](Process& p, Env& e) {
      sys_.note_causal_delivery(*m);
      HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
      p.on_message(e, *m);
      sys_.note_delivered();
    }});
  }

  // Any thread.
  bool post(std::function<void(Process&)> fn) {
    if (!enqueue(Clock::now(), Task{[fn = std::move(fn)](Process& p, Env&) { fn(p); }})) {
      return false;
    }
    sys_.waker_.notify();
    return true;
  }

  // Loop thread: runs every task due at `now` (none before start() or after
  // a crash) and returns the earliest instant a queued task falls due.
  Clock::time_point run_due(Clock::time_point now) {
    std::unique_lock lk(mu_);
    while (started_ && !crashed_ && !queue_.empty() && queue_.top().at <= now) {
      // top() is const; the task is popped right after the move.
      Task task = std::move(const_cast<Item&>(queue_.top()).task);
      queue_.pop();
      lk.unlock();
      task.run(*proc_, env_);
      lk.lock();
    }
    return started_ && !crashed_ && !queue_.empty() ? queue_.top().at : Clock::time_point::max();
  }

 private:
  struct Task {
    std::function<void(Process&, Env&)> run;
  };
  struct Item {
    Clock::time_point at;
    std::uint64_t seq;
    Task task;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  class NodeEnv final : public Env {
   public:
    explicit NodeEnv(Node& node) : node_(node) {}
    [[nodiscard]] Id self_id() const override {
      return node_.sys_.peers_.at(node_.sys_.self_).id;
    }
    void broadcast(Message m) override { node_.sys_.broadcast_from_self(m); }
    TimerId set_timer(SimTime delay) override {
      const TimerId id = node_.next_timer_++;
      // Arming happens on the loop thread, so this reads the lineage of the
      // event the handler is currently dispatching.
      const std::uint64_t armed_parent = node_.sys_.causal_.parent;
      node_.enqueue(Clock::now() + std::chrono::milliseconds(delay),
                    Task{[this, id, armed_parent](Process& p, Env& e) {
                      node_.sys_.note_timer_fire(armed_parent);
                      HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
                      p.on_timer(e, id);
                    }});
      return id;
    }
    [[nodiscard]] SimTime local_now() const override { return node_.sys_.now_ms(); }

   private:
    Node& node_;
  };

  bool enqueue(Clock::time_point at, Task task) {
    std::lock_guard lk(mu_);
    if (crashed_ || closed_) return false;
    queue_.push(Item{at, seq_++, std::move(task)});
    return true;
  }

  NetSystem& sys_;
  NodeEnv env_;
  std::unique_ptr<Process> proc_;
  mutable std::mutex mu_;
  std::priority_queue<Item, std::vector<Item>, Later> queue_;
  std::uint64_t seq_ = 0;
  TimerId next_timer_ = 1;
  bool started_ = false;
  bool crashed_ = false;
  bool closed_ = false;
};

// Frames accumulating toward one destination; deadline is armed when the
// first frame lands in an empty batch.
struct NetSystem::PendingBatch {
  BatchWriter w;
  Clock::time_point deadline{};
};

NetSystem::NetSystem(NetConfig cfg)
    : self_(cfg.self),
      peers_(std::move(cfg.peers)),
      batching_(cfg.batching),
      flush_interval_ms_(cfg.flush_interval_ms),
      max_batch_bytes_(cfg.max_batch_bytes),
      epoch_(Clock::now()),
      trace_(cfg.trace_capacity),
      rng_(cfg.seed),
      metrics_(cfg.metrics) {
  epoch_wall_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::system_clock::now().time_since_epoch())
                       .count();
  causal_.base = obs::causal_node_base(self_);
  if (peers_.empty()) throw std::invalid_argument("NetSystem: need at least one peer");
  if (self_ >= peers_.size()) throw std::invalid_argument("NetSystem: self out of range");
  if (flush_interval_ms_ < 0) throw std::invalid_argument("NetSystem: bad flush interval");
  if (max_batch_bytes_ == 0) throw std::invalid_argument("NetSystem: bad max batch bytes");

  if (metrics_ != nullptr) {
    m_broadcasts_ = &metrics_->counter("udp_broadcasts_total");
    m_copies_delivered_ = &metrics_->counter("udp_copies_delivered_total");
    m_copies_lost_link_ = &metrics_->counter("udp_copies_lost_link_total");
    m_copies_duplicated_ = &metrics_->counter("udp_copies_duplicated_total");
    m_bytes_sent_ = &metrics_->counter("udp_bytes_sent_total");
    m_bytes_received_ = &metrics_->counter("udp_bytes_received_total");
    m_packets_sent_ = &metrics_->counter("udp_packets_sent_total");
    m_packets_received_ = &metrics_->counter("udp_packets_received_total");
    m_decode_errors_ = &metrics_->counter("udp_decode_errors_total");
    // Occupancy/size of DATA datagrams (control probes are excluded so the
    // batching policy's effect stays readable).
    m_batch_frames_ = &metrics_->histogram("udp_batch_frames", obs::size_buckets());
    m_batch_bytes_ = &metrics_->histogram("udp_batch_bytes", obs::exp_buckets(64, 65536));
  }

  sock_.open(peers_[self_].ep);
  peers_[self_].ep.port = sock_.local_port();  // resolve an ephemeral bind

  heard_from_.assign(peers_.size(), false);
  heard_from_[self_] = true;
  pending_.reserve(peers_.size());
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    pending_.push_back(std::make_unique<PendingBatch>());
  }

  epoch_num_ = cfg.epoch;
  if (cfg.reliability.enabled) {
    RelConfig rc = cfg.reliability;
    rc.seed = cfg.seed ^ 0x9E3779B97F4A7C15ull;  // decouple jitter from protocol randomness
    rel_ = std::make_unique<ReliableChannel>(rc, self_, peers_[self_].id, peers_.size(),
                                             epoch_num_, metrics_);
  }

  node_ = std::make_unique<Node>(*this);
  loop_thread_ = std::thread([this] { loop(); });
}

NetSystem::~NetSystem() { stop(); }

std::uint16_t NetSystem::local_port() const { return sock_.local_port(); }

void NetSystem::set_peer_endpoint(ProcIndex i, const UdpEndpoint& ep) {
  if (started_) throw std::logic_error("NetSystem: set_peer_endpoint after start");
  if (i == self_) throw std::logic_error("NetSystem: cannot rewire self");
  std::lock_guard lk(ep_mu_);
  peers_.at(i).ep = ep;
}

void NetSystem::set_process(std::unique_ptr<Process> p) {
  if (started_) throw std::logic_error("NetSystem: set_process after start");
  node_->install(std::move(p));
}

void NetSystem::set_interposer(LinkInterposer* li) {
  if (started_) throw std::logic_error("NetSystem: set_interposer after start");
  interposer_.store(li);
}

bool NetSystem::await_peers(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    std::vector<ProcIndex> missing;
    {
      std::unique_lock lk(peers_mu_);
      for (ProcIndex i = 0; i < heard_from_.size(); ++i) {
        if (!heard_from_[i]) missing.push_back(i);
      }
      if (missing.empty()) return true;
      if (Clock::now() >= deadline) return false;
    }
    // Probe the silent peers; their socket (once bound) always acks, even
    // after they have passed their own barrier. A restarted incarnation
    // (epoch > 0) probes with REJOIN instead — HELLO's bytes are frozen and
    // carry no epoch, and peers must learn the new incarnation to flush the
    // link's ARQ state mid-run.
    for (ProcIndex i : missing) {
      if (epoch_num_ > 0) {
        send_control(kTagRejoin, i, rejoin_body(epoch_num_));
      } else {
        send_control(kTagHello, i);
      }
    }
    std::unique_lock lk(peers_mu_);
    peers_cv_.wait_for(lk, std::chrono::milliseconds(25));
  }
}

void NetSystem::start() {
  if (started_) throw std::logic_error("NetSystem: started twice");
  if (!node_->installed()) throw std::logic_error("NetSystem: process not installed");
  started_ = true;
  node_->start(epoch_);
}

void NetSystem::crash() { node_->crash(); }

bool NetSystem::is_crashed() const { return node_->crashed(); }

void NetSystem::post_task(std::function<void(Process&)> task) {
  if (!node_->post(std::move(task))) {
    throw std::runtime_error("NetSystem::query: node crashed or stopped");
  }
}

void NetSystem::note_delivered() {
  {
    std::lock_guard lk(stats_mu_);
    ++stats_.copies_delivered;
  }
  obs::inc(m_copies_delivered_);
}

void NetSystem::note_start() {
  if (!trace_.enabled()) return;
  HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
  const std::uint64_t sid = causal_.fresh();
  causal_.parent = sid;
  std::lock_guard lk(trace_mu_);
  trace_.record(now_ms(), TraceEvent::Kind::kStart, self_, {}, sid, 0);
}

void NetSystem::note_timer_fire(std::uint64_t armed_parent) {
  if (!trace_.enabled()) return;
  HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
  const std::uint64_t tid = causal_.fresh();
  causal_.parent = tid;
  causal_.tick();
  std::lock_guard lk(trace_mu_);
  trace_.record(now_ms(), TraceEvent::Kind::kTimer, self_, {}, tid, armed_parent);
}

void NetSystem::note_causal_delivery(const Message& m) {
  if (!trace_.enabled()) return;
  HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
  causal_.parent = m.meta_causal_id;
  causal_.merge(m.meta_causal_clock);
  std::lock_guard lk(trace_mu_);
  trace_.record(now_ms(), TraceEvent::Kind::kDeliver, self_, type_name(m.type), m.meta_causal_id,
                m.meta_causal_parent);
}

void NetSystem::broadcast_from_self(const Message& m) {
  if (node_->crashed()) return;
  Message stamped = m;
  stamped.meta_sender = self_;
  stamped.meta_sent_at = now_ms();
  if (trace_.enabled()) {
    // Stamp BEFORE encode_frame so the lineage crosses the socket in the
    // trace-context frame extension.
    stamped.meta_causal_parent = causal_.parent;
    stamped.meta_causal_id = causal_.fresh();
    stamped.meta_causal_clock = causal_.tick();
    std::lock_guard lk(trace_mu_);
    trace_.record(stamped.meta_sent_at, TraceEvent::Kind::kBroadcast, self_,
                  type_name(stamped.type), stamped.meta_causal_id, stamped.meta_causal_parent);
  }
  std::vector<std::uint8_t> frame;
  try {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kCodecEncode);
    frame = encode_frame(builtin_codecs(), stamped, self_, peers_[self_].id);
  } catch (const CodecError&) {
    // A body with no registered codec cannot cross a socket; count every
    // copy as lost rather than killing the loop thread (configuration bug,
    // visible in stats, analogous to an MTU blackhole).
    std::lock_guard lk(stats_mu_);
    ++stats_.broadcasts;
    ++broadcasts_by_tag_[tag_of(stamped.type)];
    stats_.copies_lost_link += peers_.size();
    obs::inc(m_copies_lost_link_, peers_.size());
    return;
  }
  const SimTime sent_ms = stamped.meta_sent_at;
  const auto now = Clock::now();
  CopyTally tally;
  for (ProcIndex to = 0; to < peers_.size(); ++to) {
    // With reliability on, each destination gets its own sequenced wrap of
    // the shared inner frame; the interposer then judges the first
    // transmission attempt (a drop is recovered by the retransmit timer —
    // loss injection sits below the ARQ, like a lossy wire).
    if (rel_ != nullptr) {
      send_copy(to, stamped.type, sent_ms, now, rel_->wrap_data(to, stamped.type, frame, now), tally);
    } else {
      send_copy(to, stamped.type, sent_ms, now, frame, tally);
    }
  }
  {
    std::lock_guard lk(stats_mu_);
    ++stats_.broadcasts;
    ++broadcasts_by_tag_[tag_of(stamped.type)];
    stats_.copies_sent += tally.sent;
    stats_.copies_lost_link += tally.dropped;
    stats_.copies_duplicated += tally.duplicated;
  }
  obs::inc(m_broadcasts_);
}

void NetSystem::send_copy(ProcIndex to, MsgType type, SimTime sent_ms, Clock::time_point now,
                          const std::vector<std::uint8_t>& wire, CopyTally& tally) {
  CopyVerdict verdict;
  if (LinkInterposer* li = interposer_.load(); li != nullptr) {
    verdict = li->on_copy(sent_ms, self_, to, type);
  }
  if (verdict.drop) {
    ++tally.dropped;
    obs::inc(m_copies_lost_link_);
    return;
  }
  enqueue_send(now + std::chrono::milliseconds(verdict.extra_delay), to, wire);
  ++tally.sent;
  for (std::size_t dup = 0; dup < verdict.duplicates; ++dup) {
    const SimTime trail =
        verdict.duplicate_spread > 0 ? rng_.uniform(1, verdict.duplicate_spread) : 1;
    enqueue_send(now + std::chrono::milliseconds(verdict.extra_delay + trail), to, wire);
    ++tally.sent;
    ++tally.duplicated;
    obs::inc(m_copies_duplicated_);
  }
}

void NetSystem::enqueue_send(Clock::time_point at, ProcIndex to, std::vector<std::uint8_t> frame) {
  send_queue_.push_back(SendItem{at, send_seq_++, to, std::move(frame)});
  std::push_heap(send_queue_.begin(), send_queue_.end(), std::greater<>{});
}

void NetSystem::send_control(std::uint8_t tag, ProcIndex to, const std::vector<std::uint8_t>& body) {
  BatchWriter w;
  w.add(encode_control_frame(tag, self_, peers_[self_].id, body));
  send_datagram(to, w.take());
}

bool NetSystem::send_datagram(ProcIndex to, const std::vector<std::uint8_t>& datagram) {
  UdpEndpoint ep;
  {
    std::lock_guard lk(ep_mu_);
    ep = peers_.at(to).ep;
  }
  const bool ok = [&] {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kUdpSend);
    return sock_.send_to(ep, datagram.data(), datagram.size());
  }();
  if (ok) {
    std::lock_guard lk(stats_mu_);
    ++stats_.packets_sent;
    stats_.bytes_sent += datagram.size();
    obs::inc(m_packets_sent_);
    obs::inc(m_bytes_sent_, datagram.size());
  }
  return ok;
}

// The node's only thread. One turn: wait for the socket, a wakeup or the
// earliest due instant; drain the socket; run due mailbox tasks; move due
// frames into batches and flush; run the ARQ timer once it is due.
// next_deadline() is read once per turn: every deadline is armed on this
// thread, so the next turn's wait sees whatever this turn armed.
void NetSystem::loop() {
  auto node_due = Clock::time_point::max();
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    const auto rel_due =
        rel_ != nullptr ? rel_->next_deadline().value_or(Clock::time_point::max())
                        : Clock::time_point::max();
    if (sock_.wait(waker_, std::min({node_due, next_send_instant(), rel_due}))) receive_ready();
    node_due = node_->run_due(Clock::now());
    send_due(Clock::now());
    if (const auto now = Clock::now(); rel_due <= now) dispatch_rel_sends(rel_->tick(now));
  }
  // Best-effort final flush so a crash-free shutdown loses nothing.
  send_due(Clock::now());
  for (ProcIndex to = 0; to < pending_.size(); ++to) {
    if (!pending_[to]->w.empty()) flush_batch(to);
  }
}

// Moves due frames into their destination batch; a full batch (or any batch
// when batching is off) flushes immediately, the rest at their deadline.
void NetSystem::send_due(Clock::time_point now) {
  while (!send_queue_.empty() && send_queue_.front().at <= now) {
    std::pop_heap(send_queue_.begin(), send_queue_.end(), std::greater<>{});
    SendItem item = std::move(send_queue_.back());
    send_queue_.pop_back();
    PendingBatch& b = *pending_[item.to];
    if (b.w.empty()) b.deadline = now + std::chrono::milliseconds(flush_interval_ms_);
    b.w.add(item.frame);
    if (!batching_ || b.w.wire_size() >= max_batch_bytes_) flush_batch(item.to);
  }
  for (ProcIndex to = 0; to < pending_.size(); ++to) {
    if (!pending_[to]->w.empty() && pending_[to]->deadline <= now) flush_batch(to);
  }
}

// The next due frame or batch deadline, whichever comes first.
Clock::time_point NetSystem::next_send_instant() const {
  auto wake = send_queue_.empty() ? Clock::time_point::max() : send_queue_.front().at;
  for (const auto& b : pending_) {
    if (!b->w.empty()) wake = std::min(wake, b->deadline);
  }
  return wake;
}

void NetSystem::flush_batch(ProcIndex to) {
  PendingBatch& b = *pending_[to];
  const std::size_t frames = b.w.frames();
  const auto datagram = b.w.take();
  if (send_datagram(to, datagram)) {
    obs::observe(m_batch_frames_, static_cast<std::int64_t>(frames));
    obs::observe(m_batch_bytes_, static_cast<std::int64_t>(datagram.size()));
  } else {
    std::lock_guard lk(stats_mu_);
    stats_.copies_lost_link += frames;
    obs::inc(m_copies_lost_link_, frames);
  }
}

void NetSystem::dispatch_rel_sends(const std::vector<RelSend>& sends) {
  if (sends.empty()) return;
  const auto now = Clock::now();
  const SimTime sent_ms = now_ms();
  CopyTally tally;
  for (const RelSend& s : sends) send_copy(s.to, s.type, sent_ms, now, s.frame, tally);
  std::lock_guard lk(stats_mu_);
  stats_.copies_sent += tally.sent;
  stats_.copies_lost_link += tally.dropped;
  stats_.copies_duplicated += tally.duplicated;
}

void NetSystem::receive_ready() {
  for (int i = 0; i < kMaxRecvPerTurn; ++i) {
    const auto n = sock_.try_recv(recv_buf_);
    if (!n) return;
    HDS_PROF_SCOPE(obs::ProfSubsystem::kUdpRecv);
    {
      std::lock_guard lk(stats_mu_);
      ++stats_.packets_received;
      stats_.bytes_received += *n;
    }
    obs::inc(m_packets_received_);
    obs::inc(m_bytes_received_, *n);
    try {
      for (const FrameView& f : split_batch(recv_buf_.data(), *n)) handle_frame(f.data, f.len);
    } catch (const CodecError&) {
      std::lock_guard lk(stats_mu_);
      ++stats_.decode_errors;
      obs::inc(m_decode_errors_);
    }
  }
}

void NetSystem::handle_frame(const std::uint8_t* data, std::size_t len) {
  Message m;
  try {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kCodecDecode);
    m = decode_frame(builtin_codecs(), data, len);
  } catch (const CodecError&) {
    std::lock_guard lk(stats_mu_);
    ++stats_.decode_errors;
    obs::inc(m_decode_errors_);
    return;
  }
  const ProcIndex from = m.meta_sender;
  const std::uint8_t tag = tag_of(m.type);  // decode_frame carries control tags too
  if (tag >= kCtrlTagFirst) {
    if (from >= peers_.size()) {
      std::lock_guard lk(stats_mu_);
      ++stats_.decode_errors;
      obs::inc(m_decode_errors_);
      return;
    }
    {
      std::lock_guard lk(peers_mu_);
      heard_from_[from] = true;
    }
    peers_cv_.notify_all();
    switch (tag) {
      case kTagHello:
        send_control(kTagHelloAck, from);
        break;
      case kTagRelAck: {
        if (rel_ == nullptr) break;
        std::optional<RelAckBody> ack;
        if (const auto body = peek_control_body(data, len)) {
          ack = parse_rel_ack_body(body->data, body->len);
        }
        if (ack) {
          rel_->on_ack(from, ack->ack_epoch, ack->ack_cum, ack->ack_bits, Clock::now());
        }
        break;
      }
      case kTagRejoin:
      case kTagRejoinAck: {
        std::optional<std::uint64_t> peer_epoch;
        if (const auto body = peek_control_body(data, len)) {
          peer_epoch = parse_rejoin_body(body->data, body->len);
        }
        if (peer_epoch && rel_ != nullptr) {
          // A higher epoch flushes the link and re-sends what the dead
          // incarnation never acked.
          dispatch_rel_sends(rel_->note_peer_epoch(from, *peer_epoch, Clock::now()));
        }
        if (tag == kTagRejoin) send_control(kTagRejoinAck, from, rejoin_body(epoch_num_));
        break;
      }
      default:
        break;
    }
    return;
  }
  // Latency across real processes is unknowable without clock agreement;
  // stamp receive time so downstream consumers see a well-formed value.
  m.meta_sent_at = now_ms();
  m.meta_wire_bytes = len;
  if (rel_ != nullptr) {
    if (const auto h = rel_peek(data, len)) {
      if (from >= peers_.size()) {
        std::lock_guard lk(stats_mu_);
        ++stats_.decode_errors;
        obs::inc(m_decode_errors_);
        return;
      }
      const auto now = Clock::now();
      dispatch_rel_sends(rel_->note_peer_epoch(from, h->epoch, now));
      rel_->on_ack(from, h->ack_epoch, h->ack_cum, h->ack_bits, now);
      auto ready = rel_->on_data(from, *h, std::move(m), now);
      for (Message& rm : ready) {
        node_->deliver(now, std::make_shared<const Message>(std::move(rm)));
      }
      return;
    }
    // A plain (unsequenced) frame from a reliability-off peer falls
    // through and delivers directly, exactly as before.
  }
  node_->deliver(Clock::now(), std::make_shared<const Message>(std::move(m)));
}

SimTime NetSystem::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - epoch_).count();
}

bool NetSystem::wait_for(const std::function<bool()>& pred, std::chrono::milliseconds timeout,
                         std::chrono::milliseconds poll) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(poll);
  }
  return pred();
}

NetNetworkStats NetSystem::net_stats() {
  std::lock_guard lk(stats_mu_);
  NetNetworkStats out = stats_;
  for (std::size_t t = 0; t < broadcasts_by_tag_.size(); ++t) {
    if (broadcasts_by_tag_[t] != 0) {
      out.broadcasts_by_type[type_name(static_cast<MsgType>(t))] = broadcasts_by_tag_[t];
    }
  }
  return out;
}

RelStats NetSystem::rel_stats() {
  if (rel_ == nullptr) return RelStats{};
  return rel_->stats();
}

std::vector<TraceEvent> NetSystem::drain_trace(std::uint64_t& cursor) {
  std::lock_guard lk(trace_mu_);
  return trace_.drain_since(cursor);
}

std::vector<TraceEvent> NetSystem::trace_events() {
  std::lock_guard lk(trace_mu_);
  return trace_.events();
}

std::uint64_t NetSystem::trace_dropped() {
  std::lock_guard lk(trace_mu_);
  return trace_.dropped();
}

void NetSystem::stop() {
  if (stopped_) return;
  stopped_ = true;
  // The wakeup is an eventfd count, so it holds even if the loop is between
  // its flag check and its wait.
  stop_flag_.store(true, std::memory_order_relaxed);
  waker_.notify();
  if (loop_thread_.joinable()) loop_thread_.join();
  node_->close();
  sock_.close();
}

}  // namespace hds::net
