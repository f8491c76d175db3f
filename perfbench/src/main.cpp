// hds_perfbench — runs one named workload from a seed for a time budget and
// prints every end-to-end metric (untraced run) or every per-layer metric
// (traced run). The last line of standard output is the result object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
// Any failed integrity check exits with status 1 and prints no result.
//
// usage: hds_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--spans PATH] [--git-sha SHA] [--source-digest HEX]
//                      [--reduced] [--corrupt]
//        hds_perfbench --selftest --workload NAME
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "corrupt.h"
#include "probe.h"
#include "stats.h"

namespace pb {

bool g_corrupt = false;

namespace {

const WorkloadInfo kWorkloads[] = {
    {"smr_failover", "committed client ops", "commit latency, submit to apply at the origin",
     "leader crash to the first op submitted afterwards completing", make_smr_failover},
    {"fd_mesh", "delivered copies",
     "crash detection per (crashed process, correct observer) pair",
     "crash to the whole mesh trusting exactly I(Correct) for good", make_fd_mesh},
    {"report_sweep", "sweep points", "per-process decision time at consensus points",
     "start to the last correct decision at consensus points", make_report_sweep},
    {"wire_replay", "messages delivered in order", "first send to in-order delivery",
     "first send to in-order delivery of messages whose first datagram was lost",
     make_wire_replay},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool reduced = false;
  bool selftest = false;
};

[[noreturn]] void fail(const std::string& why) {
  std::cerr << "hds_perfbench: FAILED: " << why << '\n';
  std::exit(1);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
    } else if (a == "--seed") {
      o.seed = std::stoull(val());
    } else if (a == "--seconds") {
      o.seconds = std::stod(val());
    } else if (a == "--trace") {
      o.trace = val() != "0";
    } else if (a == "--spans") {
      o.spans_path = val();
    } else if (a == "--git-sha") {
      o.git_sha = val();
    } else if (a == "--source-digest") {
      o.source_digest = val();
    } else if (a == "--reduced") {
      o.reduced = true;
    } else if (a == "--corrupt") {
      g_corrupt = true;
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      fail("unknown argument " + a);
    }
  }
  return o;
}

const WorkloadInfo& find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return w;
  }
  fail("unknown workload '" + name + "'");
}

// ----------------------------------------------------------------- passes

struct Pass {
  std::vector<UnitOut> units;
  std::uint64_t digest = 0;
  double work = 0, run_s = 0, cpu_s = 0, wall_s = 0;
  std::uint64_t allocs = 0;
};

Pass run_pass(Plan& plan, bool traced, LayerTotals* totals) {
  Pass pass;
  Digest d;
  for (std::size_t u = 0; u < plan.units(); ++u) {
    std::unique_ptr<Probe> probe;
    UnitOut out;
    if (traced) {
      // Sized for the largest node count any unit uses.
      probe = std::make_unique<Probe>(1024);
      probe->shards = plan.shards();
      out = plan.run(u, probe.get());
      totals->absorb(*probe);
    } else {
      out = plan.run(u, nullptr);
    }
    if (!out.error.empty()) fail(out.error);
    d.add(out.digest);
    pass.work += static_cast<double>(out.work);
    pass.run_s += out.run_s;
    pass.cpu_s += out.cpu_s;
    pass.wall_s += out.wall_s;
    pass.allocs += out.allocs;
    pass.units.push_back(std::move(out));
  }
  pass.digest = d.value();
  return pass;
}

double facts_sum(const Pass& p, const std::string& key) {
  double s = 0;
  for (const UnitOut& u : p.units) {
    const auto it = u.facts.find(key);
    if (it != u.facts.end()) s += it->second;
  }
  return s;
}

template <typename F>
std::uint64_t units_sum(const Pass& p, F&& f) {
  std::uint64_t s = 0;
  for (const UnitOut& u : p.units) s += f(u);
  return s;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string provenance(const Options& o, std::size_t shards) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_str(cpu_model())
     << ", \"compiler\": " << json_str(std::string(PB_CXX_ID) + " (" + __VERSION__ + ")")
     << ", \"build_type\": " << json_str(PB_BUILD_TYPE) << ", \"git_sha\": " << json_str(o.git_sha)
     << ", \"source_digest\": " << json_str(o.source_digest) << ", \"seed\": " << o.seed
     << ", \"shards\": " << shards << "}";
  return os.str();
}

void print_result(const std::vector<Metric>& ms, std::uint64_t attempted, std::uint64_t failed) {
  std::cout << "\n";
  for (const Metric& m : ms) {
    std::printf("  %-34s %20s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  std::fflush(stdout);
  std::ostringstream os;
  os << "{\"correct\": true, \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_str(ms[i].name) << ": {\"value\": " << num(ms[i].value)
       << ", \"unit\": " << json_str(ms[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

// -------------------------------------------------------------- untraced

int run_untraced(const Options& o, const WorkloadInfo& w, Plan& plan) {
  const std::uint64_t t0 = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  std::vector<Pass> passes;
  passes.push_back(run_pass(plan, false, nullptr));
  const double pass_s = elapsed();
  while (passes.size() < 3 || elapsed() + pass_s <= o.seconds) {
    passes.push_back(run_pass(plan, false, nullptr));
    if (passes.back().digest != passes.front().digest) {
      fail(std::string(w.name) + ": a repeated pass produced different outputs");
    }
    // Only the first pass's samples are reported; dropping the repeats'
    // keeps peak memory independent of how many passes fit the budget.
    for (UnitOut& u : passes.back().units) {
      std::vector<double>().swap(u.latency);
      std::vector<double>().swap(u.unavailable);
    }
  }
  if (const std::string h = plan.harness_check(); !h.empty()) fail(h);

  // Shared hosts only ever slow a unit down, so each unit is timed as the
  // fastest of its repetitions (one per pass); set-up likewise per unit,
  // then the median over units.
  double best_run = 0, best_cpu = 0, work = 0;
  std::vector<double> setup;
  for (std::size_t u = 0; u < plan.units(); ++u) {
    double r = passes.front().units[u].run_s;
    double c = passes.front().units[u].cpu_s;
    double st = passes.front().units[u].setup_s;
    for (const Pass& p : passes) {
      r = std::min(r, p.units[u].run_s);
      c = std::min(c, p.units[u].cpu_s);
      st = std::min(st, p.units[u].setup_s);
    }
    best_run += r;
    best_cpu += c;
    setup.push_back(st);
    work += static_cast<double>(passes.front().units[u].work);
  }
  const Pass& first = passes.front();
  std::vector<double> lat, unavail;
  std::uint64_t attempted = 0, failed = 0;
  for (const UnitOut& u : first.units) {
    lat.insert(lat.end(), u.latency.begin(), u.latency.end());
    unavail.insert(unavail.end(), u.unavailable.begin(), u.unavailable.end());
    attempted += u.attempted;
    failed += u.failed;
  }
  if (attempted == 0) fail(std::string(w.name) + ": no work attempted");
  const Tail tail = tail_of(lat);
  const double error_rate = ratio(static_cast<double>(failed), static_cast<double>(attempted));

  std::cout << "workload " << w.name << " seed " << o.seed << ": " << passes.size()
            << " passes of " << plan.units() << " units in " << num(elapsed()) << " s\n";
  std::cout << "work: " << w.work_unit << "; latency: " << w.latency_of
            << "; unavailable (mean over fault events): " << w.unavail_of << "\n";
  std::cout << "info {\"provenance\": " << provenance(o, plan.shards())
            << ", \"error_rate\": " << num(error_rate)
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"latency_samples\": " << lat.size()
            << ", \"latency_tail_percentile\": " << num(tail.percentile)
            << ", \"unavailable_samples\": " << unavail.size() << ", \"passes\": " << passes.size()
            << ", \"units_per_pass\": " << plan.units() << ", \"pass_rates\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << num(passes[i].work / passes[i].run_s);
  }
  std::cout << "], \"pass_digest\": \""
            << std::hex << first.digest << std::dec << "\"}\n";
  // error_rate is 0 on a healthy run, so it rides in attempted/failed
  // rather than in the metrics object.
  std::cout << "error_rate " << num(error_rate) << " (" << failed << " of " << attempted
            << " operations failed)\n";
  print_result(
      {
          {"setup_s", median(setup), "s"},
          {"work_per_s", work / best_run, "1/s"},
          {"cpu_us_per_work", best_cpu / work * 1e6, "us"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"latency_p50_ticks", tick_quantile(lat, 0.5), "ticks"},
          {"latency_tail_ticks", tail.value, "ticks"},
          {"unavailable_ticks", mean(unavail), "ticks"},
      },
      attempted, failed);
  return 0;
}

// ---------------------------------------------------------------- traced

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) fail("cannot write spans to " + path);
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": " << json_str(s.name) << ", \"node\": " << s.node
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns - base
        << ", \"end_ns\": " << s.end_ns - base << "}" << (i + 1 < spans.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

int run_traced(const Options& o, const WorkloadInfo& w, Plan& plan) {
  const std::uint64_t t0 = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  LayerTotals tot;
  std::vector<double> overhead;
  Pass untraced, traced;
  std::size_t pairs = 0;
  double wall = 0, setup_s = 0;  // over every traced pass
  // Another pair runs while the average pair time leaves room for it.
  do {
    untraced = run_pass(plan, false, nullptr);
    traced = run_pass(plan, true, &tot);
    ++pairs;
    wall += traced.wall_s;
    for (const UnitOut& u : traced.units) setup_s += u.setup_s;
    if (traced.digest != untraced.digest) {
      fail(std::string(w.name) + ": the traced run's outputs differ from the untraced run's");
    }
    overhead.push_back(traced.wall_s / untraced.wall_s);
  } while (elapsed() * static_cast<double>(pairs + 1) / static_cast<double>(pairs) <= o.seconds);
  if (const std::string h = plan.harness_check(); !h.empty()) fail(h);

  const double passes = static_cast<double>(pairs);
  const NodeAcc& s = tot.sum;
  const auto sum3 = [](const std::array<std::uint64_t, kKinds>& a) {
    return static_cast<double>(a[0] + a[1] + a[2]);
  };
  const double dispatches = sum3(s.node_calls);
  const double handler_ns = sum3(s.node_ns);
  const double engine_ns = static_cast<double>(tot.run_worker_ns) - handler_ns;
  const auto comp_self = [&](Layer l, Kind k) {
    const auto li = static_cast<std::size_t>(l);
    return ratio(static_cast<double>(s.comp_ns[li][k] - s.comp_child_ns[li][k]),
                 static_cast<double>(s.comp_calls[li][k]));
  };
  const auto bl = [&](Layer l) {
    return static_cast<double>(s.bcast_by_layer[static_cast<std::size_t>(l)]);
  };
  const double bcast_all = bl(Layer::kFd) + bl(Layer::kConsensus) + bl(Layer::kSmr);
  const double points = facts_sum(traced, "units");
  const double copies =
      static_cast<double>(units_sum(untraced, [](const UnitOut& u) { return u.copies; }));
  const double frames = facts_sum(traced, "net.frames");
  const double stacked_msg_ns =
      ratio(static_cast<double>(s.node_ns[kMsg] - s.node_comp_ns[kMsg]),
            static_cast<double>(s.node_calls[kMsg]));

  // Wall-time accounting of the traced passes, in worker-seconds (the run
  // phase counts once per engine shard). Every row is a self time; the
  // engine and benchmark rows are the remainders, so the rows add up.
  const double k = static_cast<double>(plan.shards());
  const double run_s = static_cast<double>(tot.run_ns) * 1e-9;
  struct Row {
    const char* layer;
    double s;
  };
  const auto comp_self_s = [&](Layer l) {
    const auto li = static_cast<std::size_t>(l);
    double ns = 0;
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      ns += static_cast<double>(s.comp_ns[li][kind] - s.comp_child_ns[li][kind]);
    }
    return ns * 1e-9;
  };
  const double wire_ns =
      static_cast<double>(tot.encode_ns + tot.decode_ns + tot.batch_ns + tot.arq_ns);
  const std::vector<Row> rows = {
      {"set-up (construct .. start)", setup_s},
      {"engine remainder (sim loop or replay loop)", (engine_ns - wire_ns) * 1e-9},
      {"sim broadcast (fan-out, draws, meter, enqueue)", static_cast<double>(s.bcast_ns) * 1e-9},
      {"sim set_timer", static_cast<double>(s.timer_ns) * 1e-9},
      {"sim StackedProcess dispatch", (handler_ns - sum3(s.node_comp_ns)) * 1e-9},
      {"fd handlers (self)", comp_self_s(Layer::kFd)},
      {"consensus handlers (self)", comp_self_s(Layer::kConsensus)},
      {"smr handlers (self)", comp_self_s(Layer::kSmr)},
      {"obs listeners", static_cast<double>(s.listener_ns) * 1e-9},
      {"net codec encode", static_cast<double>(tot.encode_ns) * 1e-9},
      {"net codec decode", static_cast<double>(tot.decode_ns) * 1e-9},
      {"net batching", static_cast<double>(tot.batch_ns) * 1e-9},
      {"net ARQ", static_cast<double>(tot.arq_ns) * 1e-9},
      {"obs QoS analysis", static_cast<double>(tot.qos_ns) * 1e-9},
      {"spec checkers", static_cast<double>(tot.check_ns) * 1e-9},
      {"benchmark (verification, glue)",
       wall - setup_s - run_s - static_cast<double>(tot.qos_ns + tot.check_ns) * 1e-9},
  };
  const double total = wall + run_s * (k - 1);
  double acc = 0;
  std::printf("workload %s seed %llu: %zu traced/untraced pass pairs of %zu units\n", w.name,
              static_cast<unsigned long long>(o.seed), pairs, plan.units());
  std::printf("per-layer self time of the traced passes (worker-seconds, %g shard%s):\n", k,
              k > 1 ? "s" : "");
  for (const Row& r : rows) {
    acc += r.s;
    std::printf("  %-48s %12.6f s %7.2f%%\n", r.layer, r.s, 100.0 * ratio(r.s, total));
  }
  std::printf("  %-48s %12.6f s (wall %.6f s + run %.6f s x %g extra shards)\n", "total", acc,
              wall, run_s, k - 1);
  for (const Row& r : rows) {
    if (r.s < -0.01 * total) fail(std::string("negative self time for ") + r.layer);
  }
  std::cout << "info {\"provenance\": " << provenance(o, plan.shards())
            << ", \"pairs\": " << pairs << ", \"spans\": " << tot.spans.size() << "}\n";
  if (!o.spans_path.empty()) write_spans(o.spans_path, tot.spans);

  // Counts come from one untraced pass (every pass repeats them exactly);
  // times and calls from the traced passes, facts from the last one.
  const auto count = [&](std::uint64_t UnitOut::*field) {
    return static_cast<double>(units_sum(untraced, [field](const UnitOut& u) { return u.*field; }));
  };
  const auto per = [](std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(a), static_cast<double>(b));
  };
  const auto fact = [&](const char* key) { return facts_sum(traced, key); };
  const double allocs = static_cast<double>(untraced.allocs);
  print_result(
      {
          {"sim.run_self_ns_per_dispatch", ratio(engine_ns - wire_ns, dispatches), "ns"},
          {"sim.broadcast_ns_per_call", per(s.bcast_ns, s.bcast_calls), "ns"},
          {"sim.stacked_ns_per_msg", stacked_msg_ns, "ns"},
          {"sim.allocs_per_copy", ratio(allocs, copies), "allocs/copy"},
          {"sim.shard.busy_frac", median(tot.shard_busy_frac), "ratio"},
          {"sim.shard.busy_imbalance", median(tot.shard_imbalance), "ratio"},
          {"sim.dispatches", dispatches / passes, "count"},
          {"sim.broadcasts", count(&UnitOut::broadcasts), "count"},
          {"sim.copies_delivered", copies, "count"},
          {"sim.bytes_per_copy", ratio(count(&UnitOut::bytes_received), copies), "bytes"},
          {"sim.shard.windows", count(&UnitOut::windows), "count"},
          {"sim.shard.cross_groups", count(&UnitOut::cross_groups), "count"},
          {"sim.shard.mailbox_spills", count(&UnitOut::mailbox_spills), "count"},
          {"fd.msg_ns", comp_self(Layer::kFd, kMsg), "ns"},
          {"fd.timer_ns", comp_self(Layer::kFd, kTimer), "ns"},
          {"fd.broadcast_share", ratio(bl(Layer::kFd), bcast_all), "ratio"},
          {"consensus.msg_ns", comp_self(Layer::kConsensus, kMsg), "ns"},
          {"consensus.broadcasts_per_decision",
           ratio(bl(Layer::kConsensus), fact("consensus.decisions") * passes), "count"},
          {"consensus.max_round", ratio(fact("consensus.max_round"), fact("consensus.points")),
           "count"},
          {"smr.msg_ns", comp_self(Layer::kSmr, kMsg), "ns"},
          {"smr.timer_ns", comp_self(Layer::kSmr, kTimer), "ns"},
          {"smr.broadcasts_per_op", ratio(bl(Layer::kSmr), fact("smr.ops") * passes), "count"},
          {"smr.ops_per_batch", ratio(fact("smr.ops_applied"), fact("smr.batches")), "count"},
          {"smr.appends_per_batch", ratio(fact("smr.appends"), fact("smr.max_batches")), "count"},
          {"smr.epochs", ratio(fact("smr.epochs"), points), "count"},
          {"smr.recovery_instances", ratio(fact("smr.recovery_instances"), points), "count"},
          {"obs.listener_ns_per_event", per(s.listener_ns, s.listener_calls), "ns"},
          {"obs.qos_ms_per_point", ratio(static_cast<double>(tot.qos_ns) * 1e-6, points * passes),
           "ms"},
          {"obs.trace_events_per_point", ratio(fact("obs.trace_events"), points), "count"},
          {"spec.check_ms_per_point",
           ratio(static_cast<double>(tot.check_ns) * 1e-6, points * passes), "ms"},
          {"net.encode_ns_per_frame", per(tot.encode_ns, tot.encode_calls), "ns"},
          {"net.decode_ns_per_frame", per(tot.decode_ns, tot.decode_calls), "ns"},
          {"net.batch_ns_per_datagram", per(tot.batch_ns, tot.batch_datagrams), "ns"},
          {"net.arq_ns_per_frame", ratio(static_cast<double>(tot.arq_ns), frames * passes), "ns"},
          {"net.allocs_per_frame", ratio(allocs, frames), "allocs/frame"},
          {"net.frames_per_datagram", ratio(frames, fact("net.datagrams")), "ratio"},
          {"net.bytes_per_frame", ratio(fact("net.frame_bytes"), frames), "bytes"},
          {"net.retransmits_per_frame", ratio(fact("net.retransmits"), fact("net.data_frames")),
           "ratio"},
          {"net.acks_per_frame", ratio(fact("net.acks"), fact("net.data_frames")), "ratio"},
          {"trace.overhead", median(overhead), "ratio"},
      },
      units_sum(untraced, [](const UnitOut& u) { return u.attempted; }),
      units_sum(untraced, [](const UnitOut& u) { return u.failed; }));
  return 0;
}

// ------------------------------------------------------------- self-test

// Reduced-size checks of one workload: determinism across two passes,
// traced against untraced, the library-harness equivalence, and a
// corrupted output that the integrity check must reject.
int run_selftest(const WorkloadInfo& w) {
  auto plan = w.make(7, true);
  const Pass a = run_pass(*plan, false, nullptr);
  const Pass b = run_pass(*plan, false, nullptr);
  if (a.digest != b.digest) fail(std::string(w.name) + ": two passes differ");
  std::cout << w.name << ": deterministic across passes (digest " << std::hex << a.digest
            << std::dec << ")\n";
  LayerTotals tot;
  const Pass t = run_pass(*plan, true, &tot);
  if (t.digest != a.digest) fail(std::string(w.name) + ": traced pass differs from untraced");
  if (tot.sum.node_calls[kMsg] == 0 && tot.encode_calls == 0) {
    fail(std::string(w.name) + ": the traced pass recorded no layer calls");
  }
  std::cout << w.name << ": traced pass reproduces the untraced outputs\n";
  if (const std::string h = plan->harness_check(); !h.empty()) fail(h);
  std::cout << w.name << ": assembly matches the library harness\n";
  g_corrupt = true;
  std::string caught;
  for (std::size_t u = 0; u < plan->units() && caught.empty(); ++u) {
    caught = plan->run(u, nullptr).error;
  }
  g_corrupt = false;
  if (caught.empty()) fail(std::string(w.name) + ": a corrupted output passed the integrity check");
  std::cout << w.name << ": corrupted output rejected (" << caught << ")\n";
  std::cout << w.name << ": selftest OK\n";
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  try {
    const Options o = parse(argc, argv);
    const WorkloadInfo& w = find_workload(o.workload);
    if (o.selftest) return run_selftest(w);
    if (o.seconds <= 0) fail("--seconds must be positive");
    auto plan = w.make(o.seed, o.reduced);
    plan->warmup();
    return o.trace ? run_traced(o, w, *plan) : run_untraced(o, w, *plan);
  } catch (const std::exception& e) {
    std::cerr << "hds_perfbench: FAILED: " << e.what() << '\n';
    return 1;
  }
}
