#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

#include "common/rng.h"
#include "common/stats.h"

namespace repobench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> metrics = {
        {"setup_s", "s"},
        {"symbols_per_s", "sym/s"},
        {"cpu_ns_per_symbol", "ns/sym"},
        {"peak_rss_mb", "MiB"},
    };
    return metrics;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> metrics = [] {
        std::vector<MetricDef> m = {
            {"workloads.build_nfa_ms", "ms"},
            {"workloads.gen_trace_ms", "ms"},
            {"nfa.analyze_ms", "ms"},
            {"ap.place_ms", "ms"},
            {"ap.busy_cycles", "cycles"},
            {"ap.switch_cycles", "cycles"},
            {"ap.reupload_cycles", "cycles"},
            {"ap.tcpu_cycles_avg", "cycles"},
            {"ap.svc_batches_max", "count"},
            {"ap.golden_capped_rows", "count"},
            {"ap.golden_cap_cycles", "cycles"},
            {"ap.pap_cycles", "cycles"},
            {"ap.baseline_cycles", "cycles"},
            {"modeled_speedup_geomean", "x"},
            {"engine.compile_ms", "ms"},
            {"engine.oracle_ms", "ms"},
            {"engine.oracle_symbols_per_s", "sym/s"},
            {"engine.bytes_per_symbol", "B/sym"},
            {"engine.flow_steps_per_symbol", "ratio"},
            {"pap.partition_ms", "ms"},
            {"pap.segments", "count"},
            {"pap.plan_ms", "ms"},
            {"pap.flows_in_range", "count"},
            {"pap.flows_after_cc", "count"},
            {"pap.flows_after_parent", "count"},
            {"pap.segment_ms.sum", "ms"},
            {"pap.segment_ms.max", "ms"},
            {"pap.active_flows_avg", "count"},
            {"pap.true_path_ratio", "ratio"},
            {"pap.compose_ms", "ms"},
            {"pap.timeline_ms", "ms"},
            {"pap.parallel_efficiency", "ratio"},
            {"pap.segments_retried", "count"},
            {"pap.segments_recovered", "count"},
            {"attrib.wall_ms", "ms"},
        };
        for (const char *bucket :
             {"baseline", "analyze", "partition", "plan", "checkpoint.io",
              "device.execute", "pipeline.stall", "compose.decode",
              "compose.recover", "compose.emulation", "verify",
              "timeline", "other", "workers.execute",
              "workers.svc_batch", "workers.retry_backoff",
              "workers.svc_reupload"})
            m.push_back({std::string("attrib.") + bucket + "_ms", "ms"});
        const std::vector<MetricDef> tail = {
            {"serve.open_ms", "ms"},
            {"serve.shed", "count"},
            {"serve.feed_wait_ms", "ms"},
            {"serve.finish_wait_ms", "ms"},
            {"serve.queue_depth_max", "count"},
            {"serve.chunks_executed", "count"},
            {"serve.chunks_recovered", "count"},
            {"serve.checkpoints_periodic", "count"},
            {"serve.manifest_appends", "count"},
            {"stream_p50_ms.light", "ms"},
            {"stream_p95_ms.light", "ms"},
            {"stream_p50_ms.heavy", "ms"},
            {"stream_p95_ms.heavy", "ms"},
            {"loadgen.lateness_ms.p50", "ms"},
            {"loadgen.lateness_ms.max", "ms"},
            {"obs.trace_overhead_frac", "ratio"},
            {"obs.span_coverage_min", "ratio"},
            {"obs.span_gap_ms", "ms"},
            {"obs.attrib_residual_ms_max", "ms"},
            {"failed_frac", "ratio"},
        };
        m.insert(m.end(), tail.begin(), tail.end());
        return m;
    }();
    return metrics;
}

double
median(std::vector<double> values)
{
    return pap::stats::percentile(std::move(values), 50.0);
}

Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    if (values.empty())
        return p;
    // Samples above the nearest rank: the smallest rank with at least
    // q * n samples at or below it.
    const double n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(
        std::clamp(std::ceil(q * n - 1e-9), 1.0, n));
    p.beyond = values.size() - rank;
    p.resolved = p.beyond >= kMinTailSamples;
    p.value = pap::stats::percentile(std::move(values), 100.0 * q);
    return p;
}

std::vector<double>
poissonSchedule(double rate, std::size_t count, std::uint64_t seed)
{
    pap::Rng rng(seed);
    std::vector<double> due;
    due.reserve(count);
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        // Exponential inter-arrival gap; 1 - u keeps log() finite.
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        due.push_back(t);
    }
    return due;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::string_view tag, std::uint64_t index)
{
    // FNV-1a over the tag, then a splitmix64 finalizer.
    std::uint64_t h = 0xcbf29ce484222325ull ^ seed;
    for (const char c : tag)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    h ^= index + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
resultJson(const Outcome &outcome, bool trace, std::string *error)
{
    std::string out = "{\"correct\": ";
    out += outcome.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(outcome.attempted);
    out += ", \"failed\": " + std::to_string(outcome.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &m : trace ? perLayerMetrics()
                                    : endToEndMetrics()) {
        const auto it = outcome.metrics.find(m.name);
        if (it == outcome.metrics.end() || !std::isfinite(it->second)) {
            if (error)
                *error = "metric '" + m.name + "' was not measured";
            return {};
        }
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", it->second);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace repobench
