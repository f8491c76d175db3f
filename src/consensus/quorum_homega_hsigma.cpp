#include "consensus/quorum_homega_hsigma.h"

#include <algorithm>

namespace hds {

QuorumConsensus::QuorumConsensus(QuorumConsensusConfig cfg, const HOmegaHandle& fd1,
                                 const HSigmaHandle& fd2)
    : cfg_(cfg), fd1_(&fd1), fd2_(&fd2) {
  est1_ = cfg_.proposal;
}

QuorumConsensus::QuorumConsensus(QuorumConsensusConfig cfg, const AOmegaHandle& aomega,
                                 const HSigmaHandle& fd2)
    : cfg_(cfg), aomega_(&aomega), fd2_(&fd2) {
  est1_ = cfg_.proposal;
}

const char* QuorumConsensus::phase_name(int phase) {
  switch (static_cast<Phase>(phase)) {
    case Phase::kCoord: return "coord";
    case Phase::kPh0: return "ph0";
    case Phase::kPh1: return "ph1";
    case Phase::kPh2: return "ph2";
    case Phase::kDone: return "done";
  }
  return "?";
}

void QuorumConsensus::attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels) {
  if (reg == nullptr) {
    m_rounds_ = nullptr;
    m_sub_rounds_ = nullptr;
    m_decide_at_ = nullptr;
    m_phase_latency_.fill(nullptr);
    return;
  }
  m_rounds_ = &reg->counter("consensus_rounds_total", labels);
  m_sub_rounds_ = &reg->counter("consensus_sub_rounds_total", labels);
  m_decide_at_ = &reg->gauge("consensus_decide_at", labels);
  for (int p = 0; p < 4; ++p) {
    obs::Labels l = labels;
    l.emplace("phase", phase_name(p));
    m_phase_latency_[static_cast<std::size_t>(p)] =
        &reg->histogram("consensus_phase_latency", obs::time_buckets(), l);
  }
}

// Records the phase transition and the latency of the phase being left.
void QuorumConsensus::set_phase(Env& env, Phase next) {
  const SimTime now = env.local_now();
  if (phase_timing_started_ && phase_ != Phase::kDone) {
    obs::observe(m_phase_latency_[static_cast<std::size_t>(phase_)], now - phase_entered_at_);
  }
  phase_timing_started_ = true;
  phase_ = next;
  phase_entered_at_ = now;
  phase_trace_.record(now, static_cast<int>(next));
}

void QuorumConsensus::bump_sub_round() {
  ++sr_;
  obs::inc(m_sub_rounds_);
}

void QuorumConsensus::on_start(Env& env) {
  enter_round(env, 1);
  env.set_timer(cfg_.guard_poll);
  advance(env);
}

void QuorumConsensus::enter_round(Env& env, Round r) {
  r_ = r;
  est2_.reset();
  set_phase(env, Phase::kCoord);
  obs::inc(m_rounds_);
  env.broadcast(  // line 9
      make_message(MsgType::kCoord, CoordMsg{env.self_id(), r_, est1_, cfg_.instance}));
}

void QuorumConsensus::on_timer(Env& env, TimerId) {
  if (phase_ == Phase::kDone) return;
  env.set_timer(cfg_.guard_poll);
  advance(env);
}

void QuorumConsensus::on_message(Env& env, const Message& m) {
  if (phase_ == Phase::kDone) return;
  if (m.type == MsgType::kCoord) {
    if (const auto* b = m.as<CoordMsg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].coord.push_back(*b);
    }
  } else if (m.type == MsgType::kPh0) {
    if (const auto* b = m.as<Ph0Msg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].ph0.push_back(b->est);
    }
  } else if (m.type == MsgType::kPh1Q) {
    if (const auto* b = m.as<Ph1QMsg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].ph1.push_back(*b);
      if (b->r == r_) max_sr_seen_ = std::max(max_sr_seen_, b->sr);
    }
  } else if (m.type == MsgType::kPh2Q) {
    if (const auto* b = m.as<Ph2QMsg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].ph2.push_back(*b);
      if (b->r == r_) max_sr_seen_ = std::max(max_sr_seen_, b->sr);
    }
  } else if (m.type == MsgType::kDecide) {
    if (const auto* b = m.as<DecideMsg>(); b != nullptr && b->instance == cfg_.instance) {
      decide(env, b->v);
    }
    return;
  } else {
    return;  // other protocols' traffic
  }
  advance(env);
}

void QuorumConsensus::decide(Env& env, Value v) {
  env.broadcast(make_message(MsgType::kDecide, DecideMsg{v, cfg_.instance}));
  decision_ = DecisionRecord{true, env.local_now(), v, r_};
  set_phase(env, Phase::kDone);
  obs::set(m_decide_at_, env.local_now());
  bufs_.clear();
}

void QuorumConsensus::advance(Env& env) {
  while (phase_ != Phase::kDone && try_advance_once(env)) {
  }
}

void QuorumConsensus::enter_ph1(Env& env) {
  // Lines 20-21.
  sr_ = 1;
  current_labels_ = fd2_->snapshot().labels;
  set_phase(env, Phase::kPh1);
  env.broadcast(make_message(
      MsgType::kPh1Q, Ph1QMsg{env.self_id(), r_, sr_, current_labels_, est1_, cfg_.instance}));
}

void QuorumConsensus::enter_ph2(Env& env) {
  // Lines 40-41.
  sr_ = 1;
  current_labels_ = fd2_->snapshot().labels;
  set_phase(env, Phase::kPh2);
  env.broadcast(make_message(
      MsgType::kPh2Q, Ph2QMsg{env.self_id(), r_, sr_, current_labels_, est2_, cfg_.instance}));
}

template <typename M>
QuorumConsensus::QuorumScan<M> QuorumConsensus::scan_quorum(const std::vector<M>& msgs,
                                                            const HSigmaSnapshot& snap) const {
  // Group this round's messages by sub-round.
  std::map<std::int64_t, std::vector<const M*>> by_sr;
  for (const M& m : msgs) {
    if (m.r == r_) by_sr[m.sr].push_back(&m);
  }
  QuorumScan<M> out;
  for (const auto& [x, mset] : snap.quora) {
    if (mset.empty()) continue;  // a safe HΣ detector never emits an empty quorum
    for (const auto& [sr, group] : by_sr) {
      (void)sr;
      std::map<Id, std::vector<const M*>> by_id;
      for (const M* m : group) {
        if (m->labels.contains(x)) by_id[m->id].push_back(m);
      }
      bool ok = true;
      for (const auto& [i, c] : mset.counts()) {
        auto it = by_id.find(i);
        if (it == by_id.end() || it->second.size() < c) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      // M: the first mult(i) matching messages per identifier — any exact
      // realization satisfies the pseudocode's existential condition.
      for (const auto& [i, c] : mset.counts()) {
        const auto& cand = by_id[i];
        out.quorum.insert(out.quorum.end(), cand.begin(), cand.begin() + static_cast<long>(c));
      }
      out.found = true;
      return out;
    }
  }
  return out;
}

bool QuorumConsensus::try_advance_once(Env& env) {
  RoundBuf& buf = bufs_[r_];
  const Id self = env.self_id();

  switch (phase_) {
    case Phase::kCoord: {
      if (aomega_ != nullptr) {
        // AAS[AΩ, HΣ] variant: no leaders' coordination.
        set_phase(env, Phase::kPh0);
        return true;
      }
      const HOmegaOut fd = fd1_->h_omega();
      // Lines 10-11.
      std::size_t own = 0;
      for (const CoordMsg& c : buf.coord) {
        if (c.id == self && c.r == r_) ++own;
      }
      if (fd.leader == self && own < fd.multiplicity) return false;
      // Lines 12-14.
      bool any = false;
      Value min_est = est1_;
      for (const CoordMsg& c : buf.coord) {
        if (c.id != self || c.r != r_) continue;
        min_est = any ? std::min(min_est, c.est) : c.est;
        any = true;
      }
      if (any) est1_ = min_est;
      set_phase(env, Phase::kPh0);
      return true;
    }

    case Phase::kPh0: {
      // Lines 16-18 (anonymous variant: a_leader replaces h_leader = id(p)).
      const bool is_leader =
          aomega_ != nullptr ? aomega_->a_leader() : fd1_->h_omega().leader == self;
      if (!is_leader && buf.ph0.empty()) return false;
      if (!buf.ph0.empty()) est1_ = buf.ph0.front();
      env.broadcast(make_message(MsgType::kPh0, Ph0Msg{r_, est1_, cfg_.instance}));
      enter_ph1(env);
      return true;
    }

    case Phase::kPh1: {
      // Lines 23-24: any PH2 of this round short-circuits the phase.
      if (!buf.ph2.empty()) {
        est2_ = buf.ph2.front().est2;
        enter_ph2(env);
        return true;
      }
      const HSigmaSnapshot snap = fd2_->snapshot();
      // Lines 25-31: quorum detection.
      auto scan = scan_quorum(buf.ph1, snap);
      if (scan.found) {
        bool same = true;
        for (const Ph1QMsg* m : scan.quorum) {
          if (m->est != scan.quorum.front()->est) same = false;
        }
        est2_ = same ? MaybeValue{scan.quorum.front()->est} : MaybeValue{};
        enter_ph2(env);
        return true;
      }
      // Lines 32-36: label change or higher sub-round observed.
      bool higher = false;
      for (const Ph1QMsg& m : buf.ph1) {
        if (m.r == r_ && m.sr > sr_) higher = true;
      }
      if (current_labels_ != snap.labels || higher) {
        bump_sub_round();
        current_labels_ = snap.labels;
        env.broadcast(make_message(
            MsgType::kPh1Q, Ph1QMsg{self, r_, sr_, current_labels_, est1_, cfg_.instance}));
        return true;
      }
      return false;
    }

    case Phase::kPh2: {
      // Lines 43-44: a COORD of the next round releases the phase.
      auto next_it = bufs_.find(r_ + 1);
      if (next_it != bufs_.end() && !next_it->second.coord.empty()) {
        bufs_.erase(bufs_.begin(), bufs_.upper_bound(r_));
        enter_round(env, r_ + 1);
        return true;
      }
      const HSigmaSnapshot snap = fd2_->snapshot();
      // Lines 45-54.
      auto scan = scan_quorum(buf.ph2, snap);
      if (scan.found) {
        std::set<MaybeValue> rec;
        for (const Ph2QMsg* m : scan.quorum) rec.insert(m->est2);
        MaybeValue non_bottom;
        for (const MaybeValue& e : rec) {
          if (e) non_bottom = non_bottom ? std::min(*non_bottom, *e) : *e;
        }
        if (rec.size() == 1 && non_bottom) {  // lines 50-51
          decide(env, *non_bottom);
          return false;
        }
        if (non_bottom) est1_ = *non_bottom;  // line 52
        bufs_.erase(bufs_.begin(), bufs_.upper_bound(r_));
        enter_round(env, r_ + 1);
        return true;
      }
      // Lines 55-59.
      bool higher = false;
      for (const Ph2QMsg& m : buf.ph2) {
        if (m.r == r_ && m.sr > sr_) higher = true;
      }
      if (current_labels_ != snap.labels || higher) {
        bump_sub_round();
        current_labels_ = snap.labels;
        env.broadcast(make_message(
            MsgType::kPh2Q, Ph2QMsg{self, r_, sr_, current_labels_, est2_, cfg_.instance}));
        return true;
      }
      return false;
    }

    case Phase::kDone:
      return false;
  }
  return false;
}

}  // namespace hds
