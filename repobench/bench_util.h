/**
 * @file
 * Small helpers shared by the repository benchmark's workloads: the
 * metric catalogue the benchmark emits, tail percentiles with a
 * sample-count rule, seeded Poisson arrival schedules, process CPU and
 * memory usage, and the one-line JSON result.
 */

#ifndef REPOBENCH_BENCH_UTIL_H
#define REPOBENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace repobench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p t0 to @p t1. */
inline double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/** Milliseconds elapsed since @p t0. */
inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** One metric the benchmark reports: name and unit. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Metrics of an untraced run (`--trace 0`), in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of a traced run (`--trace 1`), in BENCHMARK.json order. */
const std::vector<MetricDef> &perLayerMetrics();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** A percentile and how many samples lie beyond its rank. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples strictly above the percentile's rank. */
    std::size_t beyond = 0;
    /** True when at least kMinTailSamples lie beyond it. */
    bool resolved = false;
};

/** Samples a tail percentile needs beyond it to be reported. */
constexpr std::size_t kMinTailSamples = 10;

/**
 * The @p q quantile (0 < q <= 1) of @p values, interpolated as
 * stats::percentile does; `beyond` counts the samples above its
 * nearest rank.
 */
Percentile percentile(std::vector<double> values, double q);

/**
 * Due times, in seconds from the step start, of @p count arrivals of
 * a Poisson process at @p rate per second, drawn from @p seed.
 */
std::vector<double> poissonSchedule(double rate, std::size_t count,
                                    std::uint64_t seed);

/** Derive an independent seed for @p tag from the workload @p seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::string_view tag,
                         std::uint64_t index = 0);

/** Process CPU (user + sys) seconds so far. */
double processCpuSeconds();

/** Peak resident set of the process, MiB. */
double peakRssMb();

/** What one workload run measured. */
struct Outcome
{
    /** False on any report mismatch or broken invariant. */
    bool correct = true;
    /** Rows or streams attempted, and those that failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metric values by name (both lists; emitted per mode). */
    std::map<std::string, double> metrics;
};

/**
 * The last line of a run: `correct`, `attempted`, `failed` and every
 * metric of the mode's list with its unit. A metric the run did not
 * set is a harness bug and is reported as an error string instead.
 */
std::string resultJson(const Outcome &outcome, bool trace,
                       std::string *error);

} // namespace repobench

#endif // REPOBENCH_BENCH_UTIL_H
