// Figure 9 benchmark: consensus in HAS[HΩ, HΣ] — any number of crashes,
// no n/t/membership knowledge.
//
// Series: decision latency / rounds / sub-rounds vs crash count all the
// way to n-1 (the property Fig. 8 cannot offer), vs homonymy degree, vs
// HΣ stabilization (late quorum changes force sub-round churn); the full
// synchronous stack (Fig. 6 + Fig. 7-adapter) and the anonymous AP-derived
// stack.
#include "bench_util.h"
#include "consensus/messages.h"

namespace {

using namespace hds;

void set_counters(benchmark::State& state, const ConsensusRunResult& r) {
  state.counters["decision_time"] = static_cast<double>(r.last_decision_time);
  state.counters["rounds"] = static_cast<double>(r.max_round);
  state.counters["sub_rounds"] = static_cast<double>(r.max_sub_round);
  state.counters["broadcasts"] = static_cast<double>(r.broadcasts);
  auto of = [&](MsgType type) {
    auto it = r.broadcasts_by_type.find(type_name(type));
    return it == r.broadcasts_by_type.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Sub-round churn shows up as extra PH1Q/PH2Q rebroadcasts.
  state.counters["ph1q_msgs"] = of(MsgType::kPh1Q);
  state.counters["ph2q_msgs"] = of(MsgType::kPh2Q);
}

void BM_Fig9_VsCrashCountUpToAllButOne(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9OracleParams p;
    p.ids = ids_homonymous(8, 4, 3);
    if (k > 0) p.crashes = crashes_last_k(8, k, 15, 9);
    p.fd1_stabilize = 60;
    p.fd2_stabilize = 90;
    p.seed = 1;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig9_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig9_VsCrashCountUpToAllButOne)->Arg(0)->Arg(2)->Arg(4)->Arg(7)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig9_ScaleVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9OracleParams p;
    p.ids = ids_homonymous(n, (n + 1) / 2, 5);
    p.crashes = crashes_last_k(n, n / 2, 20, 7);
    p.fd1_stabilize = 60;
    p.fd2_stabilize = 80;
    p.seed = 2;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig9_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig9_ScaleVsN)->Arg(3)->Arg(5)->Arg(9)->Arg(17)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig9_VsHSigmaStabilization(benchmark::State& state) {
  const auto stab = static_cast<SimTime>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9OracleParams p;
    p.ids = ids_homonymous(6, 3, 9);
    p.crashes = crashes_last_k(6, 3, 10, 5);
    p.fd1_stabilize = 30;
    p.fd2_stabilize = stab;
    p.seed = 3;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig9_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
  state.counters["decision_minus_stab"] =
      static_cast<double>(r.last_decision_time - stab);
}
BENCHMARK(BM_Fig9_VsHSigmaStabilization)->Arg(0)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig9_FullSyncStack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9FullStackParams p;
    p.ids = ids_homonymous(n, (n + 1) / 2, 7);
    p.crashes = crashes_last_k(n, n - 2, 37, 11);
    p.delta = 3;
    p.seed = 8;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig9_full_stack(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig9_FullSyncStack)->Arg(3)->Arg(5)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig9_AnonymousApStack(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9FullStackParams p;
    p.ids = ids_anonymous(n);
    p.crashes = crashes_last_k(n, n / 2, 29, 7);
    p.delta = 2;
    p.seed = 13;
    p.anonymous_ap_stack = true;
    p.metrics = hds::bench::metrics_sink();
    r = run_fig9_full_stack(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  set_counters(state, r);
}
BENCHMARK(BM_Fig9_AnonymousApStack)->Arg(3)->Arg(6)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

HDS_BENCH_MAIN();
