/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * workload seed, computes every oracle before any timing starts,
 * measures through the public entry points a user calls (runPap, and
 * serve::Server open/tryFeed/tryFinish), diffs every report against
 * its oracle and prints what it measured, one metric per line.
 */

#ifndef REPOBENCH_WORKLOADS_H
#define REPOBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace pap {
class FaultInjector;
}

namespace repobench {

struct RunConfig
{
    std::uint64_t seed = 1;
    /** Measurement budget of an untraced run. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Host threads runPap runs on (the host's hardware threads). */
    std::uint32_t threads = 1;
    /** Times set-up is repeated; setup_s is the median. */
    int setupReps = 3;
    /** Fewest measured passes over the Table-1 rows. */
    int minPasses = 3;
    /** Input length before the registry's traceScale. */
    std::uint64_t baseTraceLen = 128ull << 10;
    /** Faults injected into runPap (tests only; not owned). */
    pap::FaultInjector *faults = nullptr;
};

/** Rows whose time goes to enumeration (many live flows). */
const std::vector<std::string> &table1EnumRows();

/** Rows that run at most a few live flows (oracle and golden flows). */
const std::vector<std::string> &table1GoldenRows();

/** Run runPap passes over @p rows. */
Outcome runTable1(const RunConfig &config,
                  const std::vector<std::string> &rows);

/**
 * Open-loop Poisson streams into one in-process serve::Server, then a
 * closed-loop capacity step.
 */
Outcome runServe(const RunConfig &config);

} // namespace repobench

#endif // REPOBENCH_WORKLOADS_H
