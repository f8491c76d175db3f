// Causal context for distributed tracing: per-message lineage ids, a
// Lamport clock, and backwards chain extraction over a recorded event log.
//
// Every send site (broadcast, timer arm, process start) mints a fresh
// lineage id and stamps the id of the event being dispatched as its parent,
// which turns the trace log into a lineage DAG: any event can be explained
// by walking parent links back to a root (a process start). Lineage ids
// fold the minting node's cluster index into the high 16 bits so ids
// minted by different OS processes never collide in a merged trace.
//
// Stamping is instrumentation-only: it never consumes simulator RNG and is
// skipped entirely (no allocation, no counter traffic) when tracing is off,
// so schedules, metrics, and QoS are byte-identical with tracing on or off
// (pinned by engine_determinism_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/tracelog.h"

namespace hds::obs {

inline constexpr unsigned kCausalNodeShift = 48;

// Lineage-id layout: [node:16][sequence:48].
[[nodiscard]] constexpr std::uint64_t causal_node_base(std::uint64_t node) {
  return node << kCausalNodeShift;
}
[[nodiscard]] constexpr std::uint64_t causal_node_of(std::uint64_t id) {
  return id >> kCausalNodeShift;
}
[[nodiscard]] constexpr std::uint64_t causal_seq_of(std::uint64_t id) {
  return id & ((std::uint64_t{1} << kCausalNodeShift) - 1);
}

// Compact human form "node:seq" used by dumps and causal chains.
[[nodiscard]] std::string causal_id_str(std::uint64_t id);

// Per-dispatch causal state. One per serial dispatch context: the simulator
// owns one (single-threaded event loop), each NetSystem node owns one (all
// handler dispatch happens on that node's thread). Not thread-safe.
struct CausalSession {
  std::uint64_t base = 0;    // causal_node_base(cluster node index)
  std::uint64_t next = 1;    // next sequence number to mint
  std::uint64_t parent = 0;  // lineage id of the event currently dispatching
  std::uint64_t clock = 0;   // Lamport clock

  // Mint a lineage id for a new send/timer/start event.
  [[nodiscard]] std::uint64_t fresh() { return base | next++; }
  // Lamport send rule: advance and return the stamped clock.
  std::uint64_t tick() { return ++clock; }
  // Lamport receive rule.
  void merge(std::uint64_t remote) { clock = (remote > clock ? remote : clock) + 1; }
};

// Walk the lineage graph backwards from `leaf_id`: for each id find the
// event that minted it (kStart / kBroadcast / kTimer with that causal_id)
// and follow its causal_parent. Returns the creator events oldest-first,
// ending with the leaf's creator. The walk stops at a root (parent 0), at
// `max_links` — a run of consecutive same-process timer re-arms (a guard
// poll spinning) counts as one link, matching the formatter's collapsing —
// on a cycle, or when the creator was evicted from a flight-recorder ring
// (the chain is then a truncated suffix).
[[nodiscard]] std::vector<TraceEvent> causal_chain(const std::vector<TraceEvent>& events,
                                                   std::uint64_t leaf_id,
                                                   std::size_t max_links = 64);

// Pick the chain target for a recorded run: the last monitor violation if
// any, else the last delivery (the newest message the system consumed —
// for a wedged run, the frontier of the quorum wait it was spinning on),
// else the last timer. Returns 0 if nothing is stamped.
[[nodiscard]] std::uint64_t causal_chain_target(const std::vector<TraceEvent>& events);

// Render a chain oldest-first, one link per line, collapsing consecutive
// same-process timer re-arms into one "timer xN" line so guard-poll spins
// stay readable. Lines look like:
//   t120 p2 broadcast PH1 id=0:17 <- 0:12
[[nodiscard]] std::string format_causal_chain(const std::vector<TraceEvent>& chain);

}  // namespace hds::obs
