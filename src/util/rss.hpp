// Portable process-memory probes for the bench harnesses, and the memory
// budget the engine sizes its largest allocations against.
//
// The out-of-core dataset layer's contract is "peak RSS independent of n";
// the scale harness (bench/bench_scale.cpp) records the high-water mark to
// prove it, and util/jsonlog.cpp stamps it into *every* bench JSON record
// so any trajectory (BENCH_engine.json, BENCH_hotpaths.json,
// BENCH_scale.json) carries the memory footprint of the run that produced
// it.  Backed by getrusage(RUSAGE_SELF) on POSIX; returns 0 where the
// platform offers no probe (records then carry an honest 0, never a guess).

#pragma once

#include <cstddef>

namespace kc {

/// High-water resident set size of this process, in bytes (monotone over
/// the process lifetime — record *before* allocating comparison baselines).
/// 0 when the platform provides no probe.
[[nodiscard]] std::size_t peak_rss_bytes();

/// Bytes this process may allocate at most: the RLIMIT_AS soft limit when
/// one is set, else physical RAM (SIZE_MAX where neither is known).  The
/// engine rejects a configuration whose allocations provably exceed it.
[[nodiscard]] std::size_t memory_budget_bytes();

}  // namespace kc
