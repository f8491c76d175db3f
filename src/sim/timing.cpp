#include "sim/timing.h"

#include <stdexcept>

namespace hds {

AsyncTiming::AsyncTiming(SimTime min_delay, SimTime max_delay)
    : min_delay_(min_delay), max_delay_(max_delay) {
  if (min_delay < 1 || max_delay < min_delay) {
    throw std::invalid_argument("AsyncTiming: need 1 <= min_delay <= max_delay");
  }
}

std::optional<SimTime> AsyncTiming::delivery_at(SimTime sent, ProcIndex, ProcIndex,
                                                MsgType, Rng& rng) {
  return sent + rng.uniform(min_delay_, max_delay_);
}

PartialSyncTiming::PartialSyncTiming(Params p) : params_(p) {
  if (p.delta < 1 || p.pre_gst_max_delay < 1 || p.gst < 0) {
    throw std::invalid_argument("PartialSyncTiming: bad parameters");
  }
  if (p.pre_gst_loss < 0.0 || p.pre_gst_loss > 1.0) {
    throw std::invalid_argument("PartialSyncTiming: loss probability out of range");
  }
  for (const auto& [link, ov] : p.pre_gst_links) {
    (void)link;
    if (ov.pre_gst_loss < 0.0 || ov.pre_gst_loss > 1.0 || ov.pre_gst_max_delay < 0) {
      throw std::invalid_argument("PartialSyncTiming: bad link override");
    }
  }
}

std::optional<SimTime> PartialSyncTiming::delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                                      MsgType, Rng& rng) {
  if (sent >= params_.gst) return sent + rng.uniform(1, params_.delta);
  double loss = params_.pre_gst_loss;
  SimTime max_delay = params_.pre_gst_max_delay;
  if (!params_.pre_gst_links.empty()) {
    auto it = params_.pre_gst_links.find({from, to});
    if (it != params_.pre_gst_links.end()) {
      loss = it->second.pre_gst_loss;
      if (it->second.pre_gst_max_delay > 0) max_delay = it->second.pre_gst_max_delay;
    }
  }
  if (rng.chance(loss)) return std::nullopt;
  return sent + rng.uniform(1, max_delay);
}

BoundedTiming::BoundedTiming(SimTime bound) : bound_(bound) {
  if (bound < 1) throw std::invalid_argument("BoundedTiming: bound must be >= 1");
}

std::optional<SimTime> BoundedTiming::delivery_at(SimTime sent, ProcIndex, ProcIndex,
                                                  MsgType, Rng& rng) {
  return sent + rng.uniform(1, bound_);
}

TypeBiasedTiming::TypeBiasedTiming(Params p) : params_(std::move(p)) {
  if (params_.default_delay < 1 || params_.per_destination_stagger < 0) {
    throw std::invalid_argument("TypeBiasedTiming: bad parameters");
  }
  for (const auto& [type, d] : params_.delay_by_type) {
    (void)type;
    if (d < 1) throw std::invalid_argument("TypeBiasedTiming: per-type delay must be >= 1");
  }
}

SimTime TypeBiasedTiming::min_delay() const {
  SimTime m = params_.default_delay;
  for (const auto& [type, d] : params_.delay_by_type) {
    (void)type;
    if (d < m) m = d;
  }
  return m;
}

std::optional<SimTime> TypeBiasedTiming::delivery_at(SimTime sent, ProcIndex, ProcIndex to,
                                                     MsgType type, Rng&) {
  auto it = params_.delay_by_type.find(type);
  const SimTime base = it == params_.delay_by_type.end() ? params_.default_delay : it->second;
  return sent + base + params_.per_destination_stagger * static_cast<SimTime>(to);
}

PerLinkTiming::PerLinkTiming(SimTime min_delay, SimTime max_delay, SimTime jitter,
                             std::uint64_t seed)
    : min_delay_(min_delay), max_delay_(max_delay), jitter_(jitter), seed_(seed) {
  if (min_delay < 1 || max_delay < min_delay || jitter < 0) {
    throw std::invalid_argument("PerLinkTiming: bad parameters");
  }
}

SimTime PerLinkTiming::base_delay(ProcIndex from, ProcIndex to) const {
  // Deterministic per-link mix: the same pair always gets the same base.
  std::uint64_t x = seed_ * 0x9e3779b97f4a7c15ULL + from * 0xbf58476d1ce4e5b9ULL +
                    to * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ULL;
  x ^= x >> 29;
  const auto span = static_cast<std::uint64_t>(max_delay_ - min_delay_ + 1);
  return min_delay_ + static_cast<SimTime>(x % span);
}

std::optional<SimTime> PerLinkTiming::delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                                  MsgType, Rng& rng) {
  const SimTime j = jitter_ > 0 ? rng.uniform(0, jitter_) : 0;
  return sent + base_delay(from, to) + j;
}

}  // namespace hds
