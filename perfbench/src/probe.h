// Layer probes for the traced run. Each layer is measured from outside, by
// timing calls into its public API:
//   - NodeProbe wraps the Process installed at a node (the StackedProcess,
//     or a bare component) and times every dispatch;
//   - ComponentProbe wraps one protocol component (FD, consensus, SMR) and
//     hands it a ProbeEnv, which times broadcast() and set_timer();
//   - ListenerProbe sits in front of an FD output listener (the online
//     monitor, window-QoS) and times every notification;
//   - SyncProbe wraps a lock-step SyncProcess (Fig. 7).
// A node's probes share one NodeAcc. A node only ever runs on the worker
// that owns it, so the accumulators need no locks even on a sharded engine.
// Self times: a component's self time is its inclusive time minus the env
// and listener calls it made; the StackedProcess self time is the node's
// inclusive time minus its components' inclusive time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "fd/output_hooks.h"
#include "sim/process.h"
#include "sim/sync_system.h"

namespace pb {

enum class Layer : std::uint8_t { kFd = 0, kConsensus = 1, kSmr = 2 };
inline constexpr std::size_t kLayers = 3;
enum Kind : std::uint8_t { kStart = 0, kMsg = 1, kTimer = 2 };
inline constexpr std::size_t kKinds = 3;

// One sampled span: name, start, end and the span that caused it.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;  // index of the causing span in the same list, -1 for none
  std::uint32_t node = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct NodeAcc {
  std::array<std::uint64_t, kKinds> node_calls{};
  std::array<std::uint64_t, kKinds> node_ns{};
  std::array<std::uint64_t, kKinds> node_comp_ns{};  // component time inside node dispatches
  std::array<std::array<std::uint64_t, kKinds>, kLayers> comp_calls{};
  std::array<std::array<std::uint64_t, kKinds>, kLayers> comp_ns{};
  std::array<std::array<std::uint64_t, kKinds>, kLayers> comp_child_ns{};
  std::array<std::uint64_t, kLayers> bcast_by_layer{};
  std::uint64_t bcast_calls = 0, bcast_ns = 0;
  std::uint64_t timer_calls = 0, timer_ns = 0;
  std::uint64_t listener_calls = 0, listener_ns = 0;
  // Running sums read by the enclosing call to derive self times.
  std::uint64_t child_ns = 0;      // env + listener time
  std::uint64_t comp_incl_ns = 0;  // component inclusive time
  // Bounded span sample.
  std::int32_t open_span = -1;
  std::vector<Span> spans;
};

// Accumulators of one traced unit: one NodeAcc per node plus the post-run
// analysis timers (main thread only).
class Probe {
 public:
  static constexpr std::size_t kSpansPerNode = 24;
  static constexpr std::size_t kSpanNodes = 8;  // nodes whose spans are sampled

  explicit Probe(std::size_t nodes);

  [[nodiscard]] NodeAcc& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t nodes() const { return nodes_.size(); }

  // Opens a span when the node's sample has room; returns its index or -1.
  std::int32_t span_open(NodeAcc& acc, const char* name, std::uint64_t t0);
  static void span_close(NodeAcc& acc, std::int32_t idx, std::int32_t prev, std::uint64_t t1);

  // Wall time inside System::run_until (or the replay loop), summed.
  std::uint64_t run_ns = 0;
  std::size_t shards = 1;
  // Post-run analysis, by layer.
  std::uint64_t qos_ns = 0, qos_calls = 0;
  std::uint64_t check_ns = 0, check_calls = 0;
  // Wire layer (wire_replay).
  std::uint64_t encode_ns = 0, encode_calls = 0;
  std::uint64_t decode_ns = 0, decode_calls = 0;
  std::uint64_t batch_ns = 0, batch_datagrams = 0;
  std::uint64_t arq_ns = 0;

 private:
  std::vector<std::unique_ptr<NodeAcc>> nodes_;
};

class ProbeEnv final : public hds::Env {
 public:
  ProbeEnv(hds::Env& inner, NodeAcc& acc, Probe& probe, Layer layer)
      : inner_(inner), acc_(acc), probe_(probe), layer_(layer) {}

  [[nodiscard]] hds::Id self_id() const override { return inner_.self_id(); }
  [[nodiscard]] hds::SimTime local_now() const override { return inner_.local_now(); }
  void broadcast(hds::Message m) override;
  hds::TimerId set_timer(hds::SimTime delay) override;

 private:
  hds::Env& inner_;
  NodeAcc& acc_;
  Probe& probe_;
  Layer layer_;
};

class ComponentProbe final : public hds::Process {
 public:
  // `is_node`: the component is installed bare at its node, so its
  // dispatches are also the node's (no StackedProcess in between).
  ComponentProbe(std::unique_ptr<hds::Process> inner, Probe& probe, std::size_t node, Layer layer,
                 bool is_node = false)
      : inner_(std::move(inner)), probe_(probe), acc_(probe.node(node)), layer_(layer),
        is_node_(is_node) {}

  void on_start(hds::Env& env) override;
  void on_message(hds::Env& env, const hds::Message& m) override;
  void on_timer(hds::Env& env, hds::TimerId id) override;

 private:
  template <typename F>
  void call(Kind k, hds::Env& env, F&& f);

  std::unique_ptr<hds::Process> inner_;
  Probe& probe_;
  NodeAcc& acc_;
  Layer layer_;
  bool is_node_;
};

class NodeProbe final : public hds::Process {
 public:
  NodeProbe(std::unique_ptr<hds::Process> inner, Probe& probe, std::size_t node)
      : inner_(std::move(inner)), probe_(probe), acc_(probe.node(node)) {}

  void on_start(hds::Env& env) override;
  void on_message(hds::Env& env, const hds::Message& m) override;
  void on_timer(hds::Env& env, hds::TimerId id) override;

 private:
  template <typename F>
  void call(Kind k, F&& f);

  std::unique_ptr<hds::Process> inner_;
  Probe& probe_;
  NodeAcc& acc_;
};

class ListenerProbe final : public hds::FdOutputListener {
 public:
  ListenerProbe(hds::FdOutputListener& inner, Probe& probe, std::size_t node)
      : inner_(inner), probe_(probe), acc_(probe.node(node)) {}

  void on_trusted_change(hds::SimTime at, const hds::Multiset<hds::Id>& m) override;
  void on_homega_change(hds::SimTime at, const hds::HOmegaOut& out) override;
  void on_hsigma_change(hds::SimTime at, const hds::HSigmaSnapshot& snap) override;
  void on_sigma_change(hds::SimTime at, const hds::Multiset<hds::Id>& m) override;

 private:
  template <typename F>
  void call(F&& f);

  hds::FdOutputListener& inner_;
  Probe& probe_;
  NodeAcc& acc_;
};

class SyncProbe final : public hds::SyncProcess {
 public:
  SyncProbe(std::unique_ptr<hds::SyncProcess> inner, Probe& probe, std::size_t node)
      : inner_(std::move(inner)), acc_(probe.node(node)) {}

  std::vector<hds::Message> step_send(std::size_t step) override;
  void step_recv(std::size_t step, const std::vector<hds::Message>& delivered) override;

 private:
  std::unique_ptr<hds::SyncProcess> inner_;
  NodeAcc& acc_;
};

// Per-layer totals over any number of traced units, and the derived
// per-layer metrics.
struct LayerTotals {
  NodeAcc sum;  // node accumulators summed (spans not merged)
  std::uint64_t run_ns = 0;            // run-phase wall
  std::uint64_t run_worker_ns = 0;     // run-phase wall x effective shards
  std::vector<double> shard_busy_frac;     // per traced unit
  std::vector<double> shard_imbalance;     // per traced unit
  std::uint64_t qos_ns = 0, qos_calls = 0, check_ns = 0, check_calls = 0;
  std::uint64_t encode_ns = 0, encode_calls = 0, decode_ns = 0, decode_calls = 0;
  std::uint64_t batch_ns = 0, batch_datagrams = 0, arq_ns = 0;
  std::vector<Span> spans;  // bounded sample, parents re-indexed into this list

  void absorb(Probe& p);
};

}  // namespace pb
