// Streaming QoS: sliding-window estimators of the Chen/Toueg-style detector
// quality metrics, computed online from FdOutputListener change events.
//
// The post-hoc analyzer (obs/qos.h) reads whole trajectories after a run;
// this is its live counterpart, designed for the health plane: "is QoS
// degrading in this window" answered while the run is in flight. The window
// is a ring of `windows` fixed sub-windows of `width` time units each.
// Every event lands in the sub-window its timestamp selects (O(1) amortized
// — rotation clears at most the skipped slots); queries aggregate the ring.
//
// Streaming semantics vs the post-hoc analyzer, per metric:
//  - detection latency: the k-th crash among carriers of label x counts as
//    detected by observer o the FIRST time o's h_trusted multiplicity of x
//    drops to mult_I(x) - k — the streaming (optimistic) reading of the
//    analyzer's *permanent*-drop rule, since "permanent" is undecidable
//    online. Requires a crash schedule; on a live cluster (no ground-truth
//    crashes) the series stays empty.
//  - mistake accounting: an observer is "mistaken" while its ◇HP̄ output
//    misses some instance of I(Correct). Interval entries count in the
//    sub-window where they open; closed durations attribute to the
//    sub-window where they close. On a live cluster, I(Correct) is the full
//    configured membership, so this doubles as a suspicion-activity signal.
//  - HΩ flap rate: output changes after the first output, per sub-window.
//  - quorum margin: minimum |q ∩ q'| over realized HΣ quorum pairs whose
//    second member was certified in the sub-window (self-pairs included,
//    mirroring the analyzer).
//
// Like the monitor, this is observer machinery: it never feeds back into
// the run, consumes no RNG, and leaves schedules byte-identical whether
// attached or not (pinned by the GoldenTrace tests). Internally
// synchronized, so listeners may be driven from NetSystem node threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/multiset.h"
#include "common/types.h"
#include "fd/ground_truth.h"
#include "fd/output_hooks.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hds::obs {

struct WindowQosConfig {
  GroundTruth gt;
  // Per-process crash instants, indexed like gt.ids; -1 (or an empty
  // vector) = never crashes. Detection latency needs this; the other
  // estimators work without it.
  std::vector<SimTime> crash_at;
  SimTime width = 250;       // sub-window width, in the substrate's time units
  std::size_t windows = 8;   // ring size; covered span = width * windows
  // qos_window_* gauges land here on every ring rotation and on stats();
  // null keeps the estimator query-only.
  MetricsRegistry* metrics = nullptr;
};

// Aggregate over the ring's covered span.
struct WindowQosStats {
  SimTime window_start = 0;
  SimTime window_end = 0;             // exclusive; (cur sub-window index + 1) * width
  std::uint64_t events = 0;           // FD output changes observed in the span
  std::uint64_t detections = 0;
  double detection_latency_mean = 0;  // over detections in the span
  SimTime detection_latency_max = -1;
  std::uint64_t mistake_intervals = 0;
  SimTime mistake_time = 0;           // closed-interval duration in the span
  std::uint64_t mistakes_open = 0;    // observers currently in mistake state
  std::uint64_t homega_flaps = 0;
  std::ptrdiff_t quorum_margin_min = -1;  // -1: no pair realized in the span
};

class WindowQos {
 public:
  explicit WindowQos(WindowQosConfig cfg);

  // Stable per-process listener for set_output_listener(); valid for the
  // estimator's lifetime. i must be < gt.n().
  [[nodiscard]] FdOutputListener* listener(ProcIndex i);

  // Aggregates the ring (and refreshes the gauges when a registry is set).
  [[nodiscard]] WindowQosStats stats();

  // Per-sub-window series, oldest first (size = min(windows, sub-windows
  // seen)) — the sparkline feed for hds_top:
  //   {"width", "windows", "window_end",
  //    "flaps": [...], "mistake_time": [...], "mistake_intervals": [...],
  //    "detections": [...], "margin_min": [...], "events": [...]}
  [[nodiscard]] Json json();

  [[nodiscard]] SimTime width() const { return cfg_.width; }

 private:
  struct Bucket {
    std::uint64_t events = 0;
    std::uint64_t det_count = 0;
    std::uint64_t det_lat_sum = 0;
    SimTime det_lat_max = -1;
    std::uint64_t mistake_entries = 0;
    SimTime mistake_time = 0;
    std::uint64_t flaps = 0;
    std::ptrdiff_t margin_min = -1;
  };

  struct ProcListener final : FdOutputListener {
    WindowQos* owner = nullptr;
    ProcIndex proc = 0;

    void on_trusted_change(SimTime at, const Multiset<Id>& m) override {
      owner->trusted_changed(proc, at, m);
    }
    void on_homega_change(SimTime at, const HOmegaOut& out) override {
      owner->homega_changed(proc, at, out);
    }
    void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
      owner->hsigma_changed(proc, at, snap);
    }
    void on_sigma_change(SimTime at, const Multiset<Id>& m) override {
      owner->trusted_changed(proc, at, m);  // Σ shares the coverage rule
    }
  };

  void trusted_changed(ProcIndex p, SimTime at, const Multiset<Id>& m);
  void homega_changed(ProcIndex p, SimTime at, const HOmegaOut& out);
  void hsigma_changed(ProcIndex p, SimTime at, const HSigmaSnapshot& snap);

  // mu_ must be held. Returns the bucket for `at` after rotating the ring.
  Bucket& advance(SimTime at);
  [[nodiscard]] WindowQosStats aggregate_locked() const;
  void refresh_gauges(const WindowQosStats& s);

  WindowQosConfig cfg_;
  Multiset<Id> correct_ids_;
  std::map<Id, std::vector<SimTime>> crash_times_;  // per label, ascending
  std::map<Id, std::size_t> all_mult_;              // mult_I per label
  std::vector<std::unique_ptr<ProcListener>> proxies_;

  mutable std::mutex mu_;
  std::vector<Bucket> ring_;
  std::int64_t cur_idx_ = -1;  // highest sub-window index seen; -1 = none
  std::uint64_t total_events_ = 0;

  struct ObserverState {
    std::map<Id, std::size_t> detected;  // per label, crashes already detected
    bool mistaken = false;
    SimTime mistake_since = 0;
    bool homega_seen = false;
    HOmegaOut last_homega;
  };
  std::vector<ObserverState> obs_;
  std::set<Multiset<Id>> seen_quora_;  // across all observers

  Gauge* g_end_ = nullptr;
  Gauge* g_events_ = nullptr;
  Gauge* g_detections_ = nullptr;
  Gauge* g_det_mean_ = nullptr;
  Gauge* g_det_max_ = nullptr;
  Gauge* g_mistake_intervals_ = nullptr;
  Gauge* g_mistake_time_ = nullptr;
  Gauge* g_mistakes_open_ = nullptr;
  Gauge* g_flaps_ = nullptr;
  Gauge* g_margin_min_ = nullptr;
};

}  // namespace hds::obs
