// Unified metrics layer shared by both substrates (sim::System and
// net::NetSystem) and by the detector / consensus instruments.
//
// Design constraints, in order:
//  - zero cost when disabled: every instrumentation site holds a nullable
//    instrument pointer and goes through the obs::inc / obs::set /
//    obs::observe helpers, so a run without a registry pays one null check;
//  - safe under real threads: instrument updates are relaxed atomics
//    (counters are monotonic aggregates, so relaxed ordering suffices);
//    instrument *creation* is mutex-guarded and returns stable references —
//    a registry never deletes or moves an instrument while alive;
//  - fixed bucket layouts: histograms are created with an explicit bound
//    vector (see time_buckets()/size_buckets()) so series are comparable
//    across runs and exporters need no merging logic;
//  - per-process labeled series: a label set {proc=3} distinguishes the
//    homonymous processes the way ProcIndex does in the ground truth —
//    labels are a formalization device of the observer, never visible to
//    the algorithms.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hds::obs {

// Label set attached to one series, e.g. {{"proc", "3"}, {"type", "PH1"}}.
using Labels = std::map<std::string, std::string>;

class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  // Monotone update, for high-water marks (e.g. last-output-change instants).
  void set_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-layout histogram: `bounds` are inclusive upper bucket bounds in
// ascending order; one implicit overflow bucket catches everything above
// the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t v);

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const { return bounds_; }
  // i in [0, bounds().size()]; the last index is the overflow bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] double mean() const {
    const std::uint64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
  }

  // Quantile estimate (q in [0, 1]) from the fixed buckets, with linear
  // interpolation inside the selected bucket (Prometheus'
  // histogram_quantile rule). The first bucket interpolates from 0; a rank
  // that lands in the overflow bucket clamps to the last bound — the layout
  // cannot see further. Returns 0 on an empty histogram.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::int64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// Power-of-two bounds lo, 2lo, 4lo, ... up to and including >= hi.
std::vector<std::int64_t> exp_buckets(std::int64_t lo, std::int64_t hi);
// lo, lo+step, ..., `count` bounds.
std::vector<std::int64_t> linear_buckets(std::int64_t lo, std::int64_t step, std::size_t count);

// Shared layouts. Times are simulated ticks (or milliseconds on the thread
// runtime); sizes are multiset / quorum cardinalities.
const std::vector<std::int64_t>& time_buckets();  // 1, 2, 4, ..., 65536
const std::vector<std::int64_t>& size_buckets();  // 1, 2, ..., 16, 32, 64
// Finer layout for latency-style series whose quantiles will be extracted:
// each power of two plus its midpoint (1, 2, 3, 4, 6, 8, 12, ..., 2^20), so
// an interpolated p95/p99 stays within ~25% of the true value.
const std::vector<std::int64_t>& latency_buckets();

// Point-in-time digest of one histogram, with bucket-estimated percentiles.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

HistogramSummary summarize(const Histogram& h);

// Point-in-time copy of every series in a registry, decoupled from the
// registry's locks and lifetime — the input to the Prometheus renderer and
// anything else that walks all series (instrument reads are relaxed, so one
// snapshot is as consistent as any concurrent reader can be).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
    friend bool operator==(const CounterSample&, const CounterSample&) = default;
  };
  struct GaugeSample {
    std::string name;
    Labels labels;
    std::int64_t value = 0;
    friend bool operator==(const GaugeSample&, const GaugeSample&) = default;
  };
  struct HistogramSample {
    std::string name;
    Labels labels;
    std::vector<std::int64_t> bounds;
    std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1, last = overflow
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    friend bool operator==(const HistogramSample&, const HistogramSample&) = default;
  };

  std::vector<CounterSample> counters;      // sorted by (name, labels)
  std::vector<GaugeSample> gauges;          // sorted by (name, labels)
  std::vector<HistogramSample> histograms;  // sorted by (name, labels)

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

// Named, labeled instruments with stable addresses. counter()/gauge()/
// histogram() create on first use and return the same instrument for the
// same (name, labels) afterwards; references stay valid for the registry's
// lifetime, so hot paths cache the pointer once and never look up again.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  // `bounds` is honoured on first creation; later calls with the same
  // (name, labels) return the existing instrument (mirrors Prometheus'
  // fixed-layout rule: one layout per series).
  Histogram& histogram(const std::string& name, const std::vector<std::int64_t>& bounds,
                       const Labels& labels = {});

  // Lookup without creation; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name, const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                const Labels& labels = {}) const;

  // Sum of every counter series with this name, across all label sets.
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  [[nodiscard]] std::size_t series_count() const;

  [[nodiscard]] MetricsSnapshot snapshot() const;

  // Full snapshot as a JSON document:
  //   {"counters": [{"name", "labels", "value"}, ...],
  //    "gauges": [...],
  //    "histograms": [{"name", "labels", "count", "sum",
  //                    "buckets": [{"le": bound-or-null, "count"}, ...]}]}
  [[nodiscard]] std::string to_json() const;

 private:
  using Key = std::pair<std::string, Labels>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

// Null-safe update helpers: instrumentation sites hold nullable pointers
// (nullptr == observability disabled) and call these unconditionally.
inline void inc(Counter* c, std::uint64_t d = 1) {
  if (c != nullptr) c->inc(d);
}
inline void set(Gauge* g, std::int64_t v) {
  if (g != nullptr) g->set(v);
}
inline void set_max(Gauge* g, std::int64_t v) {
  if (g != nullptr) g->set_max(v);
}
inline void observe(Histogram* h, std::int64_t v) {
  if (h != nullptr) h->observe(v);
}

}  // namespace hds::obs
