#include "sim/network.h"

namespace hds {

Network::Network(Scheduler& sched, TimingModel& timing, std::vector<Rng>& rngs,
                 std::vector<std::uint64_t>& bcast_seq, std::size_t n, Deliver deliver,
                 TraceSink* sink, obs::MetricsRegistry* metrics, std::size_t shards,
                 std::size_t shard_index)
    : sched_(sched),
      timing_(timing),
      rngs_(rngs),
      bcast_seq_(bcast_seq),
      n_(n),
      deliver_(std::move(deliver)),
      sink_(sink),
      metrics_(metrics),
      shards_(shards),
      shard_index_(shard_index) {
  if (metrics_ != nullptr) {
    m_copies_delivered_ = &metrics_->counter("net_copies_delivered_total");
    m_copies_lost_link_ = &metrics_->counter("net_copies_lost_link_total");
    m_copies_lost_dying_ = &metrics_->counter("net_copies_lost_dying_total");
    m_copies_duplicated_ = &metrics_->counter("net_copies_duplicated_total");
    m_copies_to_dead_ = &metrics_->counter("net_copies_to_dead_total");
    m_bytes_sent_ = &metrics_->counter("net_bytes_sent_total");
    m_bytes_received_ = &metrics_->counter("net_bytes_received_total");
    m_latency_ = &metrics_->histogram("net_delivery_latency", obs::time_buckets());
  }
}

std::vector<ProcIndex> Network::take_tos_buffer() {
  if (tos_pool_.empty()) return {};
  std::vector<ProcIndex> buf = std::move(tos_pool_.back());
  tos_pool_.pop_back();
  buf.clear();
  return buf;
}

void Network::add_to_fanout(SimTime at, ProcIndex to) {
  // Destinations iterate in ascending order, so groups fill in ascending
  // destination order too — the canonical sub-order the trace merge keys on.
  // Distinct (time, shard) groups per broadcast are few (bounded by the
  // timing model's delay spread times the shard count), so a linear scan
  // beats any map.
  const std::size_t dshard = shards_ > 1 ? static_cast<std::size_t>(to) % shards_ : 0;
  for (std::size_t g = 0; g < fanout_used_; ++g) {
    if (fanout_[g].at == at && fanout_[g].dshard == dshard) {
      fanout_[g].tos.push_back(to);
      return;
    }
  }
  if (fanout_used_ == fanout_.size()) fanout_.emplace_back();
  Fanout& f = fanout_[fanout_used_++];
  f.at = at;
  f.dshard = dshard;
  f.tos = take_tos_buffer();
  f.tos.push_back(to);
}

void Network::schedule_fanout(SimTime at, Lane lane, std::shared_ptr<const Message> msg,
                              std::vector<ProcIndex> tos) {
  // One scheduled event delivers every same-time copy in destination order
  // and recycles its destination buffer. The closure is exactly the Action
  // inline-capture budget; the lane travels via the scheduler, not the
  // capture (see Scheduler::current_lane).
  sched_.at_lane(at, lane, [this, msg = std::move(msg), tos = std::move(tos)]() mutable {
    for (const ProcIndex to : tos) {
      if (sink_ != nullptr) sink_->set_sub(to);
      deliver_(to, msg);
    }
    tos.clear();
    tos_pool_.push_back(std::move(tos));
  });
}

void Network::broadcast(ProcIndex from, Message m, double dying_delivery_prob) {
  ++stats_.broadcasts;
  const std::uint8_t tag = tag_of(m.type);
  ++broadcasts_by_tag_[tag];
  if (metrics_ != nullptr) {
    obs::Counter*& c = broadcast_counters_[tag];
    if (c == nullptr) {
      c = &metrics_->counter("net_broadcasts_total", {{"type", type_name(m.type)}});
    }
    c->inc();
  }
  m.meta_sender = from;
  m.meta_sent_at = sched_.now();
  if (byte_meter_) m.meta_wire_bytes = byte_meter_(m, from);
  if (causal_ != nullptr) {
    obs::CausalSession& cs = (*causal_)[from];
    m.meta_causal_parent = cs.parent;
    m.meta_causal_id = cs.fresh();
    m.meta_causal_clock = cs.tick();
  }
  // Canonical lane of every delivery of this broadcast: the sender's own
  // broadcast count, advanced in the sender's dispatch order — which is
  // itself a pure function of the (time, lane) total order, so the lane is
  // identical at any shard count.
  const Lane lane = make_lane(LaneClass::kDeliver, from, bcast_seq_[from]++);
  auto shared = std::make_shared<const Message>(std::move(m));
  const SimTime sent = sched_.now();
  const bool traced = sink_ != nullptr && sink_->enabled();
  const char* const tname = type_name(shared->type);
  if (traced) {
    sink_->record(sent, sched_.current_lane(), TraceEvent::Kind::kBroadcast, from, tname,
                  shared->meta_causal_id, shared->meta_causal_parent);
  }
  Rng& rng = rngs_[from];
  fanout_used_ = 0;
  for (ProcIndex to = 0; to < n_; ++to) {
    ++stats_.copies_sent;
    if (dying_delivery_prob < 1.0 && !rng.chance(dying_delivery_prob)) {
      ++stats_.copies_lost_dying_sender;
      obs::inc(m_copies_lost_dying_);
      if (traced) {
        sink_->record(sent, sched_.current_lane(), TraceEvent::Kind::kLostDying, to, tname,
                      shared->meta_causal_id, shared->meta_causal_parent);
      }
      continue;
    }
    CopyVerdict verdict;
    if (interposer_ != nullptr) verdict = interposer_->on_copy(sent, from, to, shared->type);
    if (verdict.drop) {
      ++stats_.copies_lost_link;
      obs::inc(m_copies_lost_link_);
      if (traced) {
        sink_->record(sent, sched_.current_lane(), TraceEvent::Kind::kLost, to, tname,
                      shared->meta_causal_id, shared->meta_causal_parent);
      }
      continue;
    }
    stats_.bytes_sent += shared->meta_wire_bytes;
    obs::inc(m_bytes_sent_, shared->meta_wire_bytes);
    auto when = timing_.delivery_at(sent, from, to, shared->type, rng);
    if (!when) {
      ++stats_.copies_lost_link;
      obs::inc(m_copies_lost_link_);
      if (traced) {
        sink_->record(sent, sched_.current_lane(), TraceEvent::Kind::kLost, to, tname,
                      shared->meta_causal_id, shared->meta_causal_parent);
      }
      continue;
    }
    const SimTime arrive = *when + verdict.extra_delay;
    add_to_fanout(arrive, to);
    for (std::size_t d = 0; d < verdict.duplicates; ++d) {
      ++stats_.copies_duplicated;
      stats_.bytes_sent += shared->meta_wire_bytes;
      obs::inc(m_copies_duplicated_);
      obs::inc(m_bytes_sent_, shared->meta_wire_bytes);
      if (traced) {
        sink_->record(sent, sched_.current_lane(), TraceEvent::Kind::kDuplicate, to, tname,
                      shared->meta_causal_id, shared->meta_causal_parent);
      }
      const SimTime trail =
          verdict.duplicate_spread > 0 ? rng.uniform(1, verdict.duplicate_spread) : 1;
      add_to_fanout(arrive + trail, to);
    }
  }
  for (std::size_t g = 0; g < fanout_used_; ++g) {
    Fanout& f = fanout_[g];
    if (f.dshard == shard_index_) {
      schedule_fanout(f.at, lane, shared, std::move(f.tos));
    } else {
      cross_send_(CrossGroup{f.dshard, f.at, lane, shared, std::move(f.tos)});
    }
  }
}

const NetworkStats& Network::stats() {
  for (std::size_t t = 0; t < broadcasts_by_tag_.size(); ++t) {
    if (broadcasts_by_tag_[t] != 0) {
      stats_.broadcasts_by_type[type_name(static_cast<MsgType>(t))] = broadcasts_by_tag_[t];
    }
  }
  return stats_;
}

}  // namespace hds
