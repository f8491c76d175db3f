// smr_failover unit: the replicated log on the full detector stack, with the
// first leader crashing a third of the way into the load phase. Shared with
// wire_replay, which captures its broadcast stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "bench.h"
#include "sim/process.h"
#include "smr/harness.h"

namespace pb {

struct SmrUnitParams {
  std::size_t n = 5;
  std::size_t t = 2;
  std::size_t clients = 32;      // closed-loop clients per replica
  hds::SimTime run_for = 3000;   // load phase ends at 3/4 of this
  hds::SimTime max_time = 30'000;
  hds::SimTime gst = 150;
  hds::SimTime delta = 3;
  std::uint64_t seed = 1;

  [[nodiscard]] hds::SimTime quiesce_at() const { return run_for * 3 / 4; }
  [[nodiscard]] hds::SimTime crash_at() const { return quiesce_at() / 3; }
};

// Optional extra wrapper around each node's Process (stream capture).
using NodeWrap =
    std::function<std::unique_ptr<hds::Process>(hds::ProcIndex, std::unique_ptr<hds::Process>)>;

UnitOut run_smr_unit(const SmrUnitParams& p, Probe* probe, const NodeWrap& wrap = {});

// The same run through the library's harness entry point.
hds::smr::SmrSimParams smr_harness_params(const SmrUnitParams& p);

}  // namespace pb
