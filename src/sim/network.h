// Broadcast network: fans a message out along the n directed links (one per
// destination, self included), asking the timing model for each copy's fate.
//
// Hot-path design: one broadcast schedules ONE event per distinct delivery
// time (grouping every same-time copy into a fan-out list) instead of one
// closure per directed link, per-type counters are arrays indexed by the
// one-byte message kind, and the destination buffers recycle through a pool
// so the steady state allocates nothing per broadcast.
//
// Sharding: the owning System instantiates one Network per shard, sharing
// the per-process RNG rows, broadcast counters and causal sessions (each
// row is only ever touched by the shard that owns its process). Every
// delivery event carries the canonical lane (kDeliver, sender, sender's
// broadcast count) — see sim/lane.h — so the same schedule materializes
// whatever the shard count, and the draws all come from the sender's own
// RNG row, so they are a function of the sender's dispatch order alone.
// Fan-out groups whose destinations live on another shard are handed to the
// cross-send hook instead of the local scheduler; the System routes them
// through SPSC mailboxes and re-injects them at a window barrier.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "sim/message.h"
#include "sim/scheduler.h"
#include "sim/timing.h"
#include "sim/trace_sink.h"

namespace hds {

struct NetworkStats {
  std::uint64_t broadcasts = 0;        // broadcast() invocations
  std::uint64_t copies_sent = 0;       // per-link copies put on the wire
  std::uint64_t copies_delivered = 0;  // copies handed to an alive process
  // Loss split by cause: the link itself (timing-model pre-GST loss or an
  // injected link fault) vs the "crash during broadcast" subset semantics
  // on the sender side.
  std::uint64_t copies_lost_link = 0;
  std::uint64_t copies_lost_dying_sender = 0;
  std::uint64_t copies_duplicated = 0;  // extra copies injected by a fault plan
  std::uint64_t copies_to_dead = 0;     // arrived after the destination crashed
  // Estimated wire bytes (v1 codec frame size per copy; 0 for message types
  // with no registered codec). Sent counts every copy put on the wire —
  // including copies the timing model later loses — mirroring what a socket
  // substrate pays; received counts copies handed to an alive process.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  // Named view of the per-kind broadcast counts (type_name keys), rebuilt by
  // Network::stats() for JSON snapshots and assertions (the live counters
  // are tag-indexed).
  std::map<std::string, std::uint64_t> broadcasts_by_type;

  [[nodiscard]] std::uint64_t copies_lost() const {
    return copies_lost_link + copies_lost_dying_sender;
  }

  // Delivery latency aggregate over copies handed to alive processes.
  SimTime latency_sum = 0;
  SimTime latency_max = 0;

  [[nodiscard]] double mean_latency() const {
    return copies_delivered == 0 ? 0.0
                                 : static_cast<double>(latency_sum) /
                                       static_cast<double>(copies_delivered);
  }
};

class Network {
 public:
  // `deliver` runs at each copy's delivery time; it must decide whether the
  // destination is still alive (and count copies_to_dead via the setters).
  using Deliver = std::function<void(ProcIndex to, const std::shared_ptr<const Message>&)>;

  // One same-time fan-out group whose destinations live on another shard,
  // handed to the owning System for mailbox routing.
  struct CrossGroup {
    std::size_t dest_shard = 0;
    SimTime at = 0;
    Lane lane = 0;
    std::shared_ptr<const Message> msg;
    std::vector<ProcIndex> tos;
  };
  using CrossSend = std::function<void(CrossGroup)>;

  // `rngs` and `bcast_seq` are the per-process rows owned by the System;
  // broadcast(from, ...) draws from and advances row `from` only. `sink`
  // and `metrics` may be null (that observability surface disabled).
  // `shards`/`shard_index` configure cross-shard routing (1/0 = everything
  // local, the single-queue engine).
  Network(Scheduler& sched, TimingModel& timing, std::vector<Rng>& rngs,
          std::vector<std::uint64_t>& bcast_seq, std::size_t n, Deliver deliver,
          TraceSink* sink = nullptr, obs::MetricsRegistry* metrics = nullptr,
          std::size_t shards = 1, std::size_t shard_index = 0);

  // Sends one copy to every process. If `dying_delivery_prob` < 1 the sender
  // is crashing during this broadcast: each copy independently survives with
  // that probability (the model's "received by an arbitrary subset").
  void broadcast(ProcIndex from, Message m, double dying_delivery_prob = 1.0);

  // Schedules one fan-out group on the local scheduler: at time `at`, lane
  // `lane`, deliver `msg` to every destination in `tos` (ascending). Also
  // the re-injection point for cross-shard groups drained from mailboxes.
  void schedule_fanout(SimTime at, Lane lane, std::shared_ptr<const Message> msg,
                       std::vector<ProcIndex> tos);

  // Installs a fault-plan interposer on every link (null detaches). The
  // pointer is consulted per copy; install before traffic starts.
  void set_interposer(LinkInterposer* li) { interposer_ = li; }

  // Wire-size estimator (net/codec.h via the owning System, which knows the
  // sender identifiers); evaluated once per broadcast, result stamped into
  // meta_wire_bytes. Null disables byte accounting (bytes_* stay 0).
  using ByteMeter = std::function<std::size_t(const Message& m, ProcIndex from)>;
  void set_byte_meter(ByteMeter bm) { byte_meter_ = std::move(bm); }

  // Per-process causal-tracing sessions owned by the System (null = tracing
  // off). When set, every broadcast mints a lineage id from the *sender's*
  // session, stamps its current dispatch parent, and advances its Lamport
  // clock — without consuming any RNG row or changing any schedule, so runs
  // are identical with tracing on or off.
  void set_causal(std::vector<obs::CausalSession>* c) { causal_ = c; }

  // Destination hook for cross-shard fan-out groups (sharded mode only).
  void set_cross_send(CrossSend cs) { cross_send_ = std::move(cs); }

  // Synchronizes the named by-type view from the tag-indexed counters.
  [[nodiscard]] const NetworkStats& stats();
  void note_copy_to_dead() {
    ++stats_.copies_to_dead;
    obs::inc(m_copies_to_dead_);
  }
  void note_delivered(SimTime latency, std::size_t wire_bytes) {
    ++stats_.copies_delivered;
    stats_.latency_sum += latency;
    stats_.latency_max = std::max(stats_.latency_max, latency);
    stats_.bytes_received += wire_bytes;
    obs::inc(m_copies_delivered_);
    obs::inc(m_bytes_received_, wire_bytes);
    obs::observe(m_latency_, latency);
  }

 private:
  // A fan-out group: every destination whose copy of the current broadcast
  // arrives at the same instant ON THE SAME SHARD, delivered by a single
  // scheduled event (local) or one mailbox push (cross-shard).
  struct Fanout {
    SimTime at = 0;
    std::size_t dshard = 0;
    std::vector<ProcIndex> tos;
  };

  std::vector<ProcIndex> take_tos_buffer();
  void add_to_fanout(SimTime at, ProcIndex to);

  Scheduler& sched_;
  TimingModel& timing_;
  std::vector<Rng>& rngs_;
  std::vector<std::uint64_t>& bcast_seq_;
  std::size_t n_;
  Deliver deliver_;
  TraceSink* sink_;
  obs::MetricsRegistry* metrics_;
  std::size_t shards_;
  std::size_t shard_index_;
  LinkInterposer* interposer_ = nullptr;
  std::vector<obs::CausalSession>* causal_ = nullptr;
  ByteMeter byte_meter_;
  CrossSend cross_send_;
  NetworkStats stats_;

  // Per-kind broadcast counts and their net_broadcasts_total{type=...}
  // counters, indexed by tag_of(type); a counter is created on its kind's
  // first broadcast (null while metrics are detached).
  std::array<std::uint64_t, 256> broadcasts_by_tag_{};
  std::array<obs::Counter*, 256> broadcast_counters_{};

  std::vector<Fanout> fanout_;     // groups of the in-flight broadcast (reused)
  std::size_t fanout_used_ = 0;    // live prefix of fanout_
  std::vector<std::vector<ProcIndex>> tos_pool_;  // recycled destination buffers

  // Cached instruments; all null when metrics_ is null.
  obs::Counter* m_copies_delivered_ = nullptr;
  obs::Counter* m_copies_lost_link_ = nullptr;
  obs::Counter* m_copies_lost_dying_ = nullptr;
  obs::Counter* m_copies_duplicated_ = nullptr;
  obs::Counter* m_copies_to_dead_ = nullptr;
  obs::Counter* m_bytes_sent_ = nullptr;
  obs::Counter* m_bytes_received_ = nullptr;
  obs::Histogram* m_latency_ = nullptr;
};

}  // namespace hds
