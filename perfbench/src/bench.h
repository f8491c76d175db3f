// Shared vocabulary of the benchmark program: clocks, the allocation
// counter, the digest that fingerprints deterministic outputs, the result of
// one unit of work, and the interface every workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace pb {

class Probe;  // probe.h

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// CPU time of the whole process (every thread, user + sys), in seconds.
double process_cpu_s();

// Heap allocations made so far by every thread of the process
// (alloc_count.cpp replaces the global operator new).
std::uint64_t alloc_count();

// FNV-1a over every deterministic output of a run: two runs with the same
// inputs must produce the same digest, bit for bit.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_i(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename Map>
  void add_map(const Map& m) {
    add(m.size());
    for (const auto& [k, v] : m) {
      add(k);
      add(v);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Everything one unit of work (one simulation, one sweep point, one replay)
// reports. Sim-domain fields are deterministic per unit seed; the *_s fields
// are wall/CPU measurements.
struct UnitOut {
  std::uint64_t work = 0;       // committed ops / delivered copies / points / messages
  std::uint64_t attempted = 0;  // operations attempted (error accounting)
  std::uint64_t failed = 0;
  std::vector<double> latency;      // latency samples, simulated ticks
  std::vector<double> unavailable;  // unavailable-ticks samples
  double setup_s = 0;               // construction of systems/channels up to start()
  double run_s = 0;                 // run phase wall time
  double cpu_s = 0;                 // process CPU time over the run phase
  double wall_s = 0;                // whole unit, set-up and post-run analysis included
  std::uint64_t allocs = 0;         // heap allocations during the run phase
  // Deterministic engine counts (sim workloads).
  std::uint64_t broadcasts = 0;
  std::uint64_t copies = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross_groups = 0;
  std::uint64_t mailbox_spills = 0;
  // Layer facts summed over units: counts the per-layer metrics divide by.
  std::map<std::string, double> facts;
  std::uint64_t digest = 0;  // over every deterministic output above and more
  // Over the outputs the library's harness entry point also reports, for
  // the harness-equivalence check.
  std::uint64_t harness_digest = 0;
  std::string error;         // non-empty: an integrity check failed
};

// One seeded instance of a workload: a fixed, ordered list of units. A pass
// runs every unit once; passes repeat until the time budget ends and must
// reproduce the first pass's digests exactly.
class Plan {
 public:
  virtual ~Plan() = default;
  [[nodiscard]] virtual std::size_t units() const = 0;
  // Runs unit u. With a probe, the run is assembled with the layer probes
  // in place (traced run); without, it is the plain system.
  virtual UnitOut run(std::size_t u, Probe* probe) = 0;
  // Untimed warm-up before measurement starts.
  virtual void warmup() = 0;
  // Runs the library's own harness entry point on the parameters of one
  // (reduced) unit and compares it with the benchmark's assembly. Returns
  // an empty string when they agree, else what differed.
  virtual std::string harness_check() = 0;
  // Effective engine shard count of the plan's units.
  [[nodiscard]] virtual std::size_t shards() const { return 1; }
};

struct WorkloadInfo {
  const char* name;
  const char* work_unit;    // what "work" counts
  const char* latency_of;   // what the tick latency measures
  const char* unavail_of;   // what unavailable_ticks measures
  std::unique_ptr<Plan> (*make)(std::uint64_t seed, bool reduced);
};

// Workload factories (wl_*.cpp). `reduced` shrinks every unit for the
// self-tests.
std::unique_ptr<Plan> make_smr_failover(std::uint64_t seed, bool reduced);
std::unique_ptr<Plan> make_fd_mesh(std::uint64_t seed, bool reduced);
std::unique_ptr<Plan> make_report_sweep(std::uint64_t seed, bool reduced);
std::unique_ptr<Plan> make_wire_replay(std::uint64_t seed, bool reduced);

// Per-unit seed derivation (splitmix64 of the workload seed and the index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// Times a call and adds the elapsed nanoseconds to `acc` when `on`.
template <typename F>
auto timed(bool on, std::uint64_t& acc, F&& f) {
  if (!on) return f();
  const std::uint64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += now_ns() - t0;
  } else {
    auto r = f();
    acc += now_ns() - t0;
    return r;
  }
}

}  // namespace pb
