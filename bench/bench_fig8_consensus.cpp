// Figure 8 benchmark: consensus in HAS[t < n/2, HΩ].
//
// Series: decision latency / rounds / message volume vs n, vs homonymy
// degree l, vs actual crash count, vs detector stabilization time (the
// dominant factor — expect decision ≈ stabilization + O(rounds)); and the
// full Fig. 6 ▸ Fig. 8 stack vs GST under partial synchrony.
#include "bench_util.h"
#include "consensus/messages.h"

namespace {

using namespace hds;

void set_counters(benchmark::State& state, const ConsensusRunResult& r) {
  state.counters["decision_time"] = static_cast<double>(r.last_decision_time);
  state.counters["rounds"] = static_cast<double>(r.max_round);
  state.counters["broadcasts"] = static_cast<double>(r.broadcasts);
  state.counters["copies"] = static_cast<double>(r.copies_delivered);
  // Per-phase accounting: the Leaders' Coordination Phase is the part of
  // the algorithm that exists because of homonymy.
  auto of = [&](MsgType type) {
    auto it = r.broadcasts_by_type.find(type_name(type));
    return it == r.broadcasts_by_type.end() ? 0.0 : static_cast<double>(it->second);
  };
  state.counters["coord_msgs"] = of(MsgType::kCoord);
  state.counters["ph1_msgs"] = of(MsgType::kPh1);
}

void BM_Fig8_ScaleVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(n, (n + 1) / 2, 5);
    p.t_known = (n - 1) / 2;
    if (n > 2) p.crashes = crashes_last_k(n, (n - 1) / 2, 20, 9);
    p.fd_stabilize = 60;
    p.seed = 1;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig8_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig8_ScaleVsN)->Arg(3)->Arg(5)->Arg(9)->Arg(17)->Arg(33)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig8_HomonymyDegree(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(9, distinct, 7);
    p.t_known = 4;
    p.crashes = crashes_last_k(9, 3, 25, 9);
    p.fd_stabilize = 60;
    p.seed = 2;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig8_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig8_HomonymyDegree)->Arg(1)->Arg(2)->Arg(4)->Arg(9)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig8_VsFdStabilization(benchmark::State& state) {
  const auto stab = static_cast<SimTime>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(7, 3, 3);
    p.t_known = 3;
    p.crashes = crashes_last_k(7, 2, 15, 9);
    p.fd_stabilize = stab;
    p.seed = 3;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig8_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
  state.counters["decision_minus_stab"] =
      static_cast<double>(r.last_decision_time - stab);
}
BENCHMARK(BM_Fig8_VsFdStabilization)->Arg(0)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig8_VsCrashCount(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(11, 5, 9);
    p.t_known = 5;
    if (k > 0) p.crashes = crashes_last_k(11, k, 15, 11);
    p.fd_stabilize = 60;
    p.seed = 4;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig8_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig8_VsCrashCount)->Arg(0)->Arg(1)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig8_FullStackVsGst(benchmark::State& state) {
  const auto gst = static_cast<SimTime>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8FullStackParams p;
    p.ids = ids_homonymous(5, 2, 7);
    p.t_known = 2;
    p.crashes = crashes_last_k(5, 2, gst / 2 + 5, 13);
    p.net = {.gst = gst, .delta = 3, .pre_gst_loss = 0.0, .pre_gst_max_delay = 40};
    p.seed = 2;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig8_full_stack(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
  state.counters["decision_minus_gst"] = static_cast<double>(r.last_decision_time - gst);
}
BENCHMARK(BM_Fig8_FullStackVsGst)->Arg(0)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

HDS_BENCH_MAIN();
