#include "consensus/majority_homega.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace hds {

MajorityHOmegaConsensus::MajorityHOmegaConsensus(MajorityConsensusConfig cfg,
                                                 const HOmegaHandle& fd)
    : cfg_(cfg), fd_(&fd) {
  if (cfg_.alpha) {
    if (*cfg_.alpha == 0) throw std::invalid_argument("MajorityHOmegaConsensus: alpha == 0");
  } else if (cfg_.n == 0 || cfg_.t * 2 >= cfg_.n) {
    throw std::invalid_argument("MajorityHOmegaConsensus: requires t < n/2");
  }
  est1_ = cfg_.proposal;
}

const char* MajorityHOmegaConsensus::phase_name(int phase) {
  switch (static_cast<Phase>(phase)) {
    case Phase::kCoord: return "coord";
    case Phase::kPh0: return "ph0";
    case Phase::kPh1: return "ph1";
    case Phase::kPh2: return "ph2";
    case Phase::kDone: return "done";
  }
  return "?";
}

void MajorityHOmegaConsensus::attach_metrics(obs::MetricsRegistry* reg,
                                             const obs::Labels& labels) {
  if (reg == nullptr) {
    m_rounds_ = nullptr;
    m_decide_at_ = nullptr;
    m_phase_latency_.fill(nullptr);
    return;
  }
  m_rounds_ = &reg->counter("consensus_rounds_total", labels);
  m_decide_at_ = &reg->gauge("consensus_decide_at", labels);
  for (int p = 0; p < 4; ++p) {
    obs::Labels l = labels;
    l.emplace("phase", phase_name(p));
    m_phase_latency_[static_cast<std::size_t>(p)] =
        &reg->histogram("consensus_phase_latency", obs::time_buckets(), l);
  }
}

// Records the phase transition and the latency of the phase being left.
void MajorityHOmegaConsensus::set_phase(Env& env, Phase next) {
  const SimTime now = env.local_now();
  if (phase_timing_started_ && phase_ != Phase::kDone) {
    obs::observe(m_phase_latency_[static_cast<std::size_t>(phase_)], now - phase_entered_at_);
  }
  phase_timing_started_ = true;
  phase_ = next;
  phase_entered_at_ = now;
  phase_trace_.record(now, static_cast<int>(next));
}

// Messages to wait for in Phases 1 and 2: n - t, or alpha in footnote-5
// mode (n unknown, alpha > n/2 correct processes guaranteed).
std::size_t MajorityHOmegaConsensus::wait_threshold() const {
  return cfg_.alpha ? *cfg_.alpha : cfg_.n - cfg_.t;
}

// Quorum support needed to adopt a value in Phase 1: a majority of n, or
// alpha senders (any two alpha-sets intersect because alpha > n/2).
bool MajorityHOmegaConsensus::is_quorum(std::size_t count) const {
  return cfg_.alpha ? count >= *cfg_.alpha : 2 * count > cfg_.n;
}

void MajorityHOmegaConsensus::on_start(Env& env) {
  enter_round(env, 1);
  env.set_timer(cfg_.guard_poll);
  advance(env);
}

void MajorityHOmegaConsensus::enter_round(Env& env, Round r) {
  r_ = r;
  est2_.reset();
  set_phase(env, Phase::kCoord);
  obs::inc(m_rounds_);
  // Line 9: open the Leaders' Coordination Phase of round r.
  env.broadcast(make_message(MsgType::kCoord, CoordMsg{env.self_id(), r_, est1_, cfg_.instance}));
}

void MajorityHOmegaConsensus::on_timer(Env& env, TimerId id) {
  if (phase_ == Phase::kDone) {
    // Stale guard-poll timers die here; only the dedicated redecide timer
    // keeps Task T2's DECIDE propagation alive for late (re)joiners.
    if (cfg_.redecide_interval_ms > 0 && decision_.decided && id == redecide_timer_) {
      env.broadcast(make_message(MsgType::kDecide, DecideMsg{decision_.value, cfg_.instance}));
      redecide_timer_ = env.set_timer(cfg_.redecide_interval_ms);
    }
    return;
  }
  // The FD output may have changed with no message arriving; re-arm and
  // re-evaluate the guards.
  env.set_timer(cfg_.guard_poll);
  advance(env);
}

void MajorityHOmegaConsensus::on_message(Env& env, const Message& m) {
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
  } else if (m.type == MsgType::kPh1) {
    if (const auto* b = m.as<Ph1Msg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].ph1.push_back(b->est);
    }
  } else if (m.type == MsgType::kPh2) {
    if (const auto* b = m.as<Ph2Msg>();
        b != nullptr && b->instance == cfg_.instance && b->r >= r_) {
      bufs_[b->r].ph2.push_back(b->est2);
    }
  } else if (m.type == MsgType::kDecide) {
    // Task T2: reliable propagation, then decide.
    if (const auto* b = m.as<DecideMsg>(); b != nullptr && b->instance == cfg_.instance) {
      decide(env, b->v);
    }
    return;
  } else {
    return;  // other protocols' traffic (stacked deployments)
  }
  advance(env);
}

void MajorityHOmegaConsensus::decide(Env& env, Value v) {
  env.broadcast(make_message(MsgType::kDecide, DecideMsg{v, cfg_.instance}));
  decision_ = DecisionRecord{true, env.local_now(), v, r_};
  set_phase(env, Phase::kDone);
  obs::set(m_decide_at_, env.local_now());
  bufs_.clear();
  if (cfg_.redecide_interval_ms > 0) redecide_timer_ = env.set_timer(cfg_.redecide_interval_ms);
}

void MajorityHOmegaConsensus::advance(Env& env) {
  while (phase_ != Phase::kDone && try_advance_once(env)) {
  }
}

bool MajorityHOmegaConsensus::try_advance_once(Env& env) {
  RoundBuf& buf = bufs_[r_];
  const HOmegaOut fd = fd_->h_omega();
  const Id self = env.self_id();

  switch (phase_) {
    case Phase::kCoord: {
      if (cfg_.skip_coordination_phase) {  // ablation only
        set_phase(env, Phase::kPh0);
        return true;
      }
      // Lines 10-11: leaders wait for COORD from h_multiplicity homonyms.
      std::size_t own = 0;
      for (const CoordMsg& c : buf.coord) {
        if (c.id == self && c.r == r_) ++own;
      }
      if (fd.leader == self && own < fd.multiplicity) return false;
      // Lines 12-14: adopt the minimum estimate among the homonyms heard.
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
      // Line 16: leaders proceed; others wait for a PH0 of this round.
      if (fd.leader != self && buf.ph0.empty()) return false;
      if (!buf.ph0.empty()) est1_ = buf.ph0.front();  // line 17
      env.broadcast(make_message(MsgType::kPh0, Ph0Msg{r_, est1_, cfg_.instance}));   // line 18
      env.broadcast(make_message(MsgType::kPh1, Ph1Msg{r_, est1_, cfg_.instance}));   // line 20
      set_phase(env, Phase::kPh1);
      return true;
    }

    case Phase::kPh1: {
      // Line 21: n - t PH1 messages (senders are indistinguishable; each
      // process broadcasts exactly one PH1 per round, so messages = senders).
      if (buf.ph1.size() < wait_threshold()) return false;
      // Lines 22-26: a value from a majority of processes becomes est2.
      std::map<Value, std::size_t> tally;
      for (Value v : buf.ph1) ++tally[v];
      est2_.reset();
      for (const auto& [v, c] : tally) {
        if (is_quorum(c)) est2_ = v;
      }
      env.broadcast(make_message(MsgType::kPh2, Ph2Msg{r_, est2_, cfg_.instance}));  // line 28
      set_phase(env, Phase::kPh2);
      return true;
    }

    case Phase::kPh2: {
      if (buf.ph2.size() < wait_threshold()) return false;  // line 29
      // Line 30: rec = the set of estimates received.
      std::set<MaybeValue> rec(buf.ph2.begin(), buf.ph2.end());
      MaybeValue non_bottom;
      for (const MaybeValue& e : rec) {
        if (e) non_bottom = non_bottom ? std::min(*non_bottom, *e) : *e;
      }
      if (rec.size() == 1 && non_bottom) {  // lines 31-32: rec = {v}
        decide(env, *non_bottom);
        return false;
      }
      if (non_bottom) est1_ = *non_bottom;  // line 33: rec = {v, bottom}
      // line 34: rec = {bottom} — keep est1.
      bufs_.erase(bufs_.begin(), bufs_.upper_bound(r_));
      enter_round(env, r_ + 1);
      return true;
    }

    case Phase::kDone:
      return false;
  }
  return false;
}

}  // namespace hds
