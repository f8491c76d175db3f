// Figure 3 benchmark: class-S detector (alive lists, move-to-front).
//
// Series: time until the correct prefix stabilizes after crashes vs n and
// vs the resend period, plus a pure data-structure microbenchmark of the
// move-to-front operation at large list sizes.
#include <algorithm>

#include "bench_util.h"
#include "fd/impl/alive_ranker.h"
#include "sim/system.h"
#include "spec/fd_checkers.h"

namespace {

using namespace hds;

struct RankerOut {
  bool ok = false;
  std::string detail;
  SimTime settle_time = -1;  // last time any correct process's list changed ranks
  std::uint64_t broadcasts = 0;
};

RankerOut run(std::size_t n, std::size_t crash_k, SimTime period, std::uint64_t seed) {
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(1, 6);
  cfg.crashes.resize(n);
  for (std::size_t j = 0; j < crash_k; ++j) cfg.crashes[n - 1 - j] = CrashPlan{40};
  cfg.seed = seed;
  System sys(std::move(cfg));
  std::vector<AliveRanker*> fds;
  for (ProcIndex i = 0; i < n; ++i) {
    auto fd = std::make_unique<AliveRanker>(period);
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  const SimTime run_for = 1500 + 20 * static_cast<SimTime>(n);
  sys.run_until(run_for);
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<std::vector<Id>>*> traces;
  for (auto* fd : fds) traces.push_back(&fd->trace());
  auto res = check_ranker(gt, traces, run_for, 100);
  RankerOut out;
  out.ok = res.ok;
  out.detail = res.detail;
  out.broadcasts = sys.net_stats().broadcasts;
  // Settle time: the first moment from which every correct process's
  // correct-prefix property holds at every later recorded point.
  SimTime settle = 0;
  const std::size_t bound = gt.correct_count();
  const Multiset<Id> correct = gt.correct_ids();
  for (ProcIndex i = 0; i < n; ++i) {
    if (!sys.is_correct(i)) continue;
    SimTime bad_until = 0;
    for (const auto& [t, list] : traces[i]->points()) {
      for (const auto& [id, c] : correct.counts()) {
        (void)c;
        if (rank_of(id, list) > bound) bad_until = t;
      }
    }
    settle = std::max(settle, bad_until);
  }
  out.settle_time = settle;
  return out;
}

void BM_Fig3_SettleVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RankerOut r;
  for (auto _ : state) r = run(n, n / 3, 5, 1);
  hds::bench::require(state, r.ok, r.detail);
  state.counters["settle_time"] = static_cast<double>(r.settle_time);
  state.counters["broadcasts"] = static_cast<double>(r.broadcasts);
}
BENCHMARK(BM_Fig3_SettleVsN)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig3_SettleVsResendPeriod(benchmark::State& state) {
  const auto period = static_cast<SimTime>(state.range(0));
  RankerOut r;
  for (auto _ : state) r = run(8, 3, period, 2);
  hds::bench::require(state, r.ok, r.detail);
  state.counters["settle_time"] = static_cast<double>(r.settle_time);
  state.counters["broadcasts"] = static_cast<double>(r.broadcasts);
}
BENCHMARK(BM_Fig3_SettleVsResendPeriod)->Arg(2)->Arg(5)->Arg(10)->Arg(25)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig3_MoveToFrontThroughput(benchmark::State& state) {
  // Data-structure cost: one ALIVE handling at list size n.
  const auto n = static_cast<std::size_t>(state.range(0));
  AliveRanker fd(1000000);
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  for (std::size_t i = 0; i < n; ++i) {
    fd.on_message(sys.env(0), make_message(MsgType::kAlive, AliveMsg{static_cast<Id>(i)}));
  }
  Id next = 0;
  for (auto _ : state) {
    fd.on_message(sys.env(0), make_message(MsgType::kAlive, AliveMsg{next}));
    next = (next + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Iterations capped: the detector's built-in trajectory records every list
// change, so unbounded iteration would grow memory without bound.
BENCHMARK(BM_Fig3_MoveToFrontThroughput)->Arg(16)->Arg(256)->Arg(4096)->Iterations(5000);

}  // namespace

HDS_BENCH_MAIN();
