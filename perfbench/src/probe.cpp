#include "probe.h"

#include <algorithm>
#include <numeric>

namespace pb {

Probe::Probe(std::size_t nodes) {
  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeAcc>());
    // Reserved up front so sampling never allocates inside a measured call.
    if (i < kSpanNodes) nodes_.back()->spans.reserve(kSpansPerNode);
  }
}

std::int32_t Probe::span_open(NodeAcc& acc, const char* name, std::uint64_t t0) {
  if (acc.spans.size() >= acc.spans.capacity()) return -1;
  acc.spans.push_back(Span{name, acc.open_span, 0, t0, 0});
  const auto idx = static_cast<std::int32_t>(acc.spans.size() - 1);
  acc.open_span = idx;
  return idx;
}

void Probe::span_close(NodeAcc& acc, std::int32_t idx, std::int32_t prev, std::uint64_t t1) {
  if (idx < 0) return;
  acc.spans[static_cast<std::size_t>(idx)].end_ns = t1;
  acc.open_span = prev;
}

// ------------------------------------------------------------------ env

void ProbeEnv::broadcast(hds::Message m) {
  const std::int32_t prev = acc_.open_span;
  const std::uint64_t t0 = now_ns();
  const std::int32_t s = probe_.span_open(acc_, "sim.broadcast", t0);
  inner_.broadcast(std::move(m));
  const std::uint64_t t1 = now_ns();
  Probe::span_close(acc_, s, prev, t1);
  ++acc_.bcast_calls;
  acc_.bcast_ns += t1 - t0;
  ++acc_.bcast_by_layer[static_cast<std::size_t>(layer_)];
  acc_.child_ns += t1 - t0;
}

hds::TimerId ProbeEnv::set_timer(hds::SimTime delay) {
  const std::uint64_t t0 = now_ns();
  const hds::TimerId id = inner_.set_timer(delay);
  const std::uint64_t t1 = now_ns();
  ++acc_.timer_calls;
  acc_.timer_ns += t1 - t0;
  acc_.child_ns += t1 - t0;
  return id;
}

// ------------------------------------------------------------ component

namespace {

constexpr const char* kCompSpan[kLayers][kKinds] = {
    {"fd.start", "fd.msg", "fd.timer"},
    {"consensus.start", "consensus.msg", "consensus.timer"},
    {"smr.start", "smr.msg", "smr.timer"},
};
constexpr const char* kNodeSpan[kKinds] = {"node.start", "node.msg", "node.timer"};

}  // namespace

template <typename F>
void ComponentProbe::call(Kind k, hds::Env& env, F&& f) {
  const auto l = static_cast<std::size_t>(layer_);
  ProbeEnv penv(env, acc_, probe_, layer_);
  const std::uint64_t child0 = acc_.child_ns;
  const std::int32_t prev = acc_.open_span;
  const std::uint64_t t0 = now_ns();
  const std::int32_t s = probe_.span_open(acc_, is_node_ ? kNodeSpan[k] : kCompSpan[l][k], t0);
  f(penv);
  const std::uint64_t t1 = now_ns();
  Probe::span_close(acc_, s, prev, t1);
  const std::uint64_t dt = t1 - t0;
  ++acc_.comp_calls[l][k];
  acc_.comp_ns[l][k] += dt;
  acc_.comp_child_ns[l][k] += acc_.child_ns - child0;
  acc_.comp_incl_ns += dt;
  if (is_node_) {
    ++acc_.node_calls[k];
    acc_.node_ns[k] += dt;
    acc_.node_comp_ns[k] += dt;
  }
}

void ComponentProbe::on_start(hds::Env& env) {
  call(kStart, env, [&](hds::Env& e) { inner_->on_start(e); });
}
void ComponentProbe::on_message(hds::Env& env, const hds::Message& m) {
  call(kMsg, env, [&](hds::Env& e) { inner_->on_message(e, m); });
}
void ComponentProbe::on_timer(hds::Env& env, hds::TimerId id) {
  call(kTimer, env, [&](hds::Env& e) { inner_->on_timer(e, id); });
}

// ----------------------------------------------------------------- node

template <typename F>
void NodeProbe::call(Kind k, F&& f) {
  const std::uint64_t comp0 = acc_.comp_incl_ns;
  const std::int32_t prev = acc_.open_span;
  const std::uint64_t t0 = now_ns();
  const std::int32_t s = probe_.span_open(acc_, kNodeSpan[k], t0);
  f();
  const std::uint64_t t1 = now_ns();
  Probe::span_close(acc_, s, prev, t1);
  ++acc_.node_calls[k];
  acc_.node_ns[k] += t1 - t0;
  acc_.node_comp_ns[k] += acc_.comp_incl_ns - comp0;
}

void NodeProbe::on_start(hds::Env& env) {
  call(kStart, [&] { inner_->on_start(env); });
}
void NodeProbe::on_message(hds::Env& env, const hds::Message& m) {
  call(kMsg, [&] { inner_->on_message(env, m); });
}
void NodeProbe::on_timer(hds::Env& env, hds::TimerId id) {
  call(kTimer, [&] { inner_->on_timer(env, id); });
}

// ------------------------------------------------------------- listener

template <typename F>
void ListenerProbe::call(F&& f) {
  const std::int32_t prev = acc_.open_span;
  const std::uint64_t t0 = now_ns();
  const std::int32_t s = probe_.span_open(acc_, "obs.listener", t0);
  f();
  const std::uint64_t t1 = now_ns();
  Probe::span_close(acc_, s, prev, t1);
  ++acc_.listener_calls;
  acc_.listener_ns += t1 - t0;
  acc_.child_ns += t1 - t0;
}

void ListenerProbe::on_trusted_change(hds::SimTime at, const hds::Multiset<hds::Id>& m) {
  call([&] { inner_.on_trusted_change(at, m); });
}
void ListenerProbe::on_homega_change(hds::SimTime at, const hds::HOmegaOut& out) {
  call([&] { inner_.on_homega_change(at, out); });
}
void ListenerProbe::on_hsigma_change(hds::SimTime at, const hds::HSigmaSnapshot& snap) {
  call([&] { inner_.on_hsigma_change(at, snap); });
}
void ListenerProbe::on_sigma_change(hds::SimTime at, const hds::Multiset<hds::Id>& m) {
  call([&] { inner_.on_sigma_change(at, m); });
}

// ----------------------------------------------------------------- sync

// A lock-step step is one dispatch of an FD component: the send half is
// booked as a timer dispatch (it is clock-driven), the receive half as a
// message dispatch.
std::vector<hds::Message> SyncProbe::step_send(std::size_t step) {
  const auto l = static_cast<std::size_t>(Layer::kFd);
  const std::uint64_t child0 = acc_.child_ns;
  const std::uint64_t t0 = now_ns();
  std::vector<hds::Message> out = inner_->step_send(step);
  const std::uint64_t dt = now_ns() - t0;
  ++acc_.node_calls[kTimer];
  acc_.node_ns[kTimer] += dt;
  acc_.node_comp_ns[kTimer] += dt;
  ++acc_.comp_calls[l][kTimer];
  acc_.comp_ns[l][kTimer] += dt;
  acc_.comp_child_ns[l][kTimer] += acc_.child_ns - child0;
  acc_.bcast_by_layer[l] += out.empty() ? 0 : 1;
  return out;
}

void SyncProbe::step_recv(std::size_t step, const std::vector<hds::Message>& delivered) {
  const auto l = static_cast<std::size_t>(Layer::kFd);
  const std::uint64_t child0 = acc_.child_ns;
  const std::uint64_t t0 = now_ns();
  inner_->step_recv(step, delivered);
  const std::uint64_t dt = now_ns() - t0;
  ++acc_.node_calls[kMsg];
  acc_.node_ns[kMsg] += dt;
  acc_.node_comp_ns[kMsg] += dt;
  ++acc_.comp_calls[l][kMsg];
  acc_.comp_ns[l][kMsg] += dt;
  acc_.comp_child_ns[l][kMsg] += acc_.child_ns - child0;
}

// --------------------------------------------------------------- totals

void LayerTotals::absorb(Probe& p) {
  const std::size_t k = std::max<std::size_t>(1, p.shards);
  std::vector<std::uint64_t> busy(k, 0);
  for (std::size_t i = 0; i < p.nodes(); ++i) {
    NodeAcc& a = p.node(i);
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      sum.node_calls[kind] += a.node_calls[kind];
      sum.node_ns[kind] += a.node_ns[kind];
      sum.node_comp_ns[kind] += a.node_comp_ns[kind];
      for (std::size_t l = 0; l < kLayers; ++l) {
        sum.comp_calls[l][kind] += a.comp_calls[l][kind];
        sum.comp_ns[l][kind] += a.comp_ns[l][kind];
        sum.comp_child_ns[l][kind] += a.comp_child_ns[l][kind];
      }
    }
    for (std::size_t l = 0; l < kLayers; ++l) sum.bcast_by_layer[l] += a.bcast_by_layer[l];
    sum.bcast_calls += a.bcast_calls;
    sum.bcast_ns += a.bcast_ns;
    sum.timer_calls += a.timer_calls;
    sum.timer_ns += a.timer_ns;
    sum.listener_calls += a.listener_calls;
    sum.listener_ns += a.listener_ns;
    // Processes are partitioned round-robin by dense index (sim/system.h).
    busy[i % k] += std::accumulate(a.node_ns.begin(), a.node_ns.end(), std::uint64_t{0});
    if (spans.size() < 4096) {
      const auto base = static_cast<std::int32_t>(spans.size());
      for (Span s : a.spans) {
        s.parent = s.parent < 0 ? -1 : s.parent + base;
        s.node = static_cast<std::uint32_t>(i);
        spans.push_back(s);
      }
    }
  }
  run_ns += p.run_ns;
  run_worker_ns += p.run_ns * k;
  const double total = std::accumulate(busy.begin(), busy.end(), 0.0);
  if (p.run_ns > 0) {
    shard_busy_frac.push_back(total / (static_cast<double>(k) * static_cast<double>(p.run_ns)));
  }
  if (total > 0) {
    const double mean = total / static_cast<double>(k);
    shard_imbalance.push_back(static_cast<double>(*std::max_element(busy.begin(), busy.end())) /
                              mean);
  }
  qos_ns += p.qos_ns;
  qos_calls += p.qos_calls;
  check_ns += p.check_ns;
  check_calls += p.check_calls;
  encode_ns += p.encode_ns;
  encode_calls += p.encode_calls;
  decode_ns += p.decode_ns;
  decode_calls += p.decode_calls;
  batch_ns += p.batch_ns;
  batch_datagrams += p.batch_datagrams;
  arq_ns += p.arq_ns;
}

}  // namespace pb
