// Fault injection for the benchmark's own tests: when set, every workload
// corrupts one output before its integrity check reads it, and the check
// must reject the run.
#pragma once

namespace pb {

extern bool g_corrupt;

}  // namespace pb
