/**
 * @file
 * The serve-snort workload: an open loop of Poisson stream arrivals
 * into one in-process serve::Server on the Snort ruleset, then a
 * closed loop that measures its capacity.
 *
 * One generator thread issues every arrival at its due time and
 * drives open / tryFeed / tryFinish for all live streams; the server
 * runs nproc - 1 workers. Each stream is its own seeded p_m trace;
 * odd streams are keyed with periodic checkpoints (so the checkpoint
 * writer and the manifest journal run beside plain streaming), even
 * streams are unkeyed. Latency runs from a stream's due time to its
 * report, so a stall also charges the arrivals queued behind it.
 *
 * Steps: a closed-loop `saturate` step that keeps a fixed number of
 * streams open for half the run's seconds; `light` and `heavy` at
 * fixed absolute rates; a ladder from `heavy` upward until a step
 * misses the p95 limit or its backlog grows; a second `saturate`
 * step. The sustained rate is where p95 crosses the limit; the
 * capacity is the saturate steps' completion rate.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <unistd.h>

#include "common/stats.h"
#include "obs/metrics.h"
#include "pap/runner.h"
#include "serve/server.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/benchmarks.h"

namespace repobench {

using namespace pap;

namespace {

// Shape of the load, chosen once on a 4-thread host: `light` and
// `heavy` sit below the sustainable rate there.

/** Fixed absolute arrival rates, streams per second. */
constexpr double kLightRate = 20.0;
constexpr double kHeavyRate = 30.0;
/**
 * Streams a saturate step keeps open at once. There, 4 to 32 gave
 * the same completion rate; a fixed count keeps the backlog the same
 * from run to run, where arrivals above capacity let it grow to
 * hundreds of live sessions and the rate drift with it.
 */
constexpr std::size_t kSaturateInflight = 16;
/** Saturate-step time left out of the capacity while the loop fills. */
constexpr double kSaturateWarmupS = 2.0;
/** Windows each saturate step is split into; see windowRates. */
constexpr int kCapacityWindows = 3;
/** Ladder above heavy: rate growth per step, most steps. */
constexpr double kLadderGrowth = 1.15;
constexpr int kLadderSteps = 4;
/** A step meets the limit when its p95 latency is at most this. */
constexpr double kLatencyLimitMs = 500.0;
/**
 * Streams per rate step: enough that p95 has kMinTailSamples beyond
 * it. Every step replays the same streams, so steps differ only in
 * their arrival rate.
 */
constexpr std::size_t kStreamsPerStep = 210;
/** Symbols per stream. */
constexpr std::uint64_t kStreamSymbols = 8192;
/** Symbols handed to one tryFeed call (one network read's worth). */
constexpr std::size_t kFeedPiece = 2048;
/** Periodic checkpoint cadence of keyed streams, in chunks. */
constexpr std::int64_t kCheckpointEvery = 2;

struct StreamInput
{
    InputTrace trace;
    std::vector<ReportEvent> oracle;
};

/** What one rate step measured. */
struct Step
{
    std::string name;
    double rate = 0.0;
    std::size_t inflight = 0; ///< closed loop: streams kept open
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t mismatches = 0;
    std::size_t shed = 0;
    std::vector<double> latencyMs;  ///< per completed stream, due order
    std::vector<double> latenessMs; ///< per arrival
    double throughput = 0.0;        ///< completed / (last report - step start)
    std::vector<double> reportAtS;  ///< report times, s from step start
    double openMs = 0.0, feedWaitMs = 0.0, finishWaitMs = 0.0;
    std::size_t queueDepthMax = 0;
    bool backlogGrowing = false;
    Percentile p50, p95;

    /** Met the latency limit: no failures and a steady backlog. */
    bool meets() const
    {
        return failed == 0 && p95.resolved &&
               p95.value <= kLatencyLimitMs && !backlogGrowing;
    }
};

/** One live stream of the generator. */
struct Live
{
    std::size_t index = 0;
    serve::SessionId id = 0;
    Clock::time_point due;
    std::size_t fed = 0;
    bool closing = false;
    Clock::time_point blockedSince{};
    bool blocked = false;
    Clock::time_point closedAt{};
    /** Calls into the server, recorded as spans when tracing. */
    struct Call
    {
        const char *name;
        Clock::time_point t0, t1;
    };
    std::vector<Call> calls;
};

/** How a step issues its streams. */
struct Load
{
    /** Open loop: Poisson arrivals per second, one per input stream. */
    double rate = 0.0;
    /**
     * Closed loop, when nonzero: keep this many streams open, issuing
     * the next as soon as one reports, for `seconds`.
     */
    std::size_t inflight = 0;
    double seconds = 0.0;
};

/**
 * Run streams of @p inputs through @p server as @p load says: every
 * input once at Poisson arrivals from @p seed (open loop), or the
 * inputs cyclically at a fixed concurrency (closed loop).
 * @p requestBase numbers the streams' spans.
 */
Step
runStep(serve::Server &server, const std::string &name, const Load &load,
        const std::vector<StreamInput> &inputs, std::uint64_t seed,
        std::uint64_t requestBase)
{
    const bool closed = load.inflight > 0;
    Step st;
    st.name = name;
    st.rate = load.rate;
    st.inflight = load.inflight;
    SpanRecorder *recorder = activeRecorder();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto stopIssuing =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(load.seconds));
    std::vector<Clock::time_point> due;
    if (!closed) {
        const std::vector<double> schedule =
            poissonSchedule(load.rate, inputs.size(), seed);
        for (const double at : schedule)
            due.push_back(start +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(at)));
    }

    std::vector<double> latency; // per issued stream, -1 until it reports
    std::vector<Live> live;
    std::size_t next = 0;
    const auto arrivalDue = [&](Clock::time_point now) {
        if (closed)
            return live.size() < load.inflight && now >= start &&
                   now < stopIssuing;
        return next < due.size() && due[next] <= now;
    };
    Clock::time_point lastReport = start;
    auto lastSample = Clock::now();
    const auto timed = [&](Live &s, const char *what, auto &&call) {
        const auto t0 = Clock::now();
        auto result = call();
        if (recorder)
            s.calls.push_back({what, t0, Clock::now()});
        return result;
    };
    const auto fail = [&](Live &s, const Status &why) {
        std::printf("FAILED stream %s/%zu: %s\n", name.c_str(), s.index,
                    why.toString().c_str());
        ++st.failed;
    };

    while (next < due.size() || !live.empty() ||
           (closed && Clock::now() < stopIssuing)) {
        const auto now = Clock::now();
        // Issue every arrival that is due, however late the loop is.
        while (arrivalDue(now)) {
            Live s;
            s.index = next;
            s.due = closed ? now : due[next];
            const bool keyed = next % 2 == 1;
            const auto t0 = Clock::now();
            if (!closed)
                st.latenessMs.push_back(msBetween(s.due, t0));
            latency.push_back(-1.0);
            const Result<serve::SessionId> opened = timed(s, "serve.open", [&] {
                return keyed ? server.open("keyed",
                                           name + "-" +
                                               std::to_string(next),
                                           kCheckpointEvery)
                             : server.open("plain");
            });
            st.openMs += msSince(t0);
            ++next;
            if (!opened.ok()) {
                if (opened.status().code() == ErrorCode::ResourceExhausted)
                    ++st.shed;
                fail(s, opened.status());
                continue;
            }
            s.id = opened.value();
            live.push_back(std::move(s));
        }

        bool progressed = false;
        for (std::size_t k = 0; k < live.size();) {
            Live &s = live[k];
            const StreamInput &in = inputs[s.index % inputs.size()];
            bool done = false;
            if (!s.closing) {
                const std::size_t len =
                    std::min(kFeedPiece, in.trace.size() - s.fed);
                const Result<bool> fed = timed(s, "serve.feed", [&] {
                    return server.tryFeed(s.id, in.trace.ptr(s.fed), len);
                });
                if (!fed.ok()) {
                    fail(s, fed.status());
                    done = true;
                } else if (fed.value()) {
                    progressed = true;
                    if (s.blocked)
                        st.feedWaitMs += msSince(s.blockedSince);
                    s.blocked = false;
                    s.fed += len;
                    if (s.fed == in.trace.size()) {
                        s.closing = true;
                        s.closedAt = Clock::now();
                    }
                } else if (!s.blocked) {
                    s.blocked = true; // window full: backpressure
                    s.blockedSince = Clock::now();
                }
            }
            if (!done && s.closing) {
                serve::SessionReport report;
                const Result<bool> fin = timed(s, "serve.finish", [&] {
                    return server.tryFinish(s.id, &report);
                });
                if (!fin.ok()) {
                    fail(s, fin.status());
                    done = true;
                } else if (fin.value()) {
                    const auto at = Clock::now();
                    progressed = true;
                    done = true;
                    lastReport = std::max(lastReport, at);
                    st.reportAtS.push_back(msBetween(start, at) / 1e3);
                    st.finishWaitMs += msBetween(s.closedAt, at);
                    const bool mismatch = report.reports != in.oracle;
                    if (mismatch || report.chunksRetried > 0 ||
                        report.chunksRecovered > 0) {
                        std::printf("FAILED stream %s/%zu: mismatch=%d "
                                    "retried=%u recovered=%u\n",
                                    name.c_str(), s.index, mismatch,
                                    report.chunksRetried,
                                    report.chunksRecovered);
                        st.mismatches += mismatch;
                        ++st.failed;
                    } else {
                        ++st.completed;
                        latency[s.index] = msBetween(s.due, at);
                    }
                    if (recorder) {
                        const std::uint64_t parent = recorder->add(
                            "serve.stream", 0, requestBase + s.index,
                            s.due, at);
                        for (const Live::Call &c : s.calls)
                            recorder->add(c.name, parent,
                                          requestBase + s.index, c.t0,
                                          c.t1);
                    }
                }
            }
            if (done) {
                live[k] = std::move(live.back());
                live.pop_back();
            } else {
                ++k;
            }
        }

        if (msSince(lastSample) >= 5.0) {
            st.queueDepthMax =
                std::max(st.queueDepthMax, server.stats().queueDepth);
            lastSample = Clock::now();
        }
        if (!progressed) {
            // Nothing moved: yield the core to the workers briefly,
            // waking early for the next arrival.
            auto wake = Clock::now() + std::chrono::microseconds(100);
            if (next < due.size())
                wake = std::min(wake, due[next]);
            std::this_thread::sleep_until(wake);
        }
    }

    st.attempted = next;
    for (const double ms : latency)
        if (ms >= 0.0)
            st.latencyMs.push_back(ms);
    st.p50 = percentile(st.latencyMs, 0.50);
    st.p95 = percentile(st.latencyMs, 0.95);
    const double spanS = msBetween(start, lastReport) / 1e3;
    st.throughput = spanS > 0.0 ? st.completed / spanS : 0.0;
    // A growing backlog shows as latency rising through the step: the
    // last fifth of arrivals waiting far longer than the first fifth.
    const std::size_t fifth = st.latencyMs.size() / 5;
    if (fifth > 0) {
        const double head = median(std::vector<double>(
            st.latencyMs.begin(), st.latencyMs.begin() + fifth));
        const double tail = median(std::vector<double>(
            st.latencyMs.end() - fifth, st.latencyMs.end()));
        st.backlogGrowing = tail > 2.0 * head + 0.25 * kLatencyLimitMs;
    }
    return st;
}

void
printStep(const Step &st)
{
    char load[32];
    if (st.inflight)
        std::snprintf(load, sizeof load, "inflight=%zu", st.inflight);
    else
        std::snprintf(load, sizeof load, "rate=%7.2f/s", st.rate);
    std::printf("  step %-8s %s streams=%zu completed=%zu "
                "failed=%zu p50=%.2fms p95=%.2fms (%zu beyond) "
                "throughput=%.2f/s lateness_max=%.2fms backlog=%s\n",
                st.name.c_str(), load, st.attempted, st.completed,
                st.failed, st.p50.value, st.p95.value, st.p95.beyond,
                st.throughput, pap::stats::maxOf(st.latenessMs),
                st.backlogGrowing ? "growing" : "steady");
}

serve::ServeOptions
serveOptions(const RunConfig &config, const std::string &stateDir)
{
    serve::ServeOptions o;
    o.threads = std::max<std::uint32_t>(1, config.threads - 1);
    // Admission caps far above any backlog a step below capacity
    // builds, so nothing is shed by design.
    o.maxSessions = 1u << 16;
    o.tenantSessionCap = 1u << 16;
    o.checkpointDir = stateDir;
    return o;
}

/**
 * Completion rates of a closed-loop step, streams per second: the
 * reports between @p fromS and @p toS seconds into the step, split into
 * kCapacityWindows equal windows, each rated (reports - 1) / (last -
 * first report).
 */
std::vector<double>
windowRates(const Step &st, double fromS, double toS)
{
    std::vector<double> at = st.reportAtS;
    std::sort(at.begin(), at.end());
    std::vector<double> rates;
    const double width = (toS - fromS) / kCapacityWindows;
    for (int w = 0; w < kCapacityWindows; ++w) {
        const auto lo = std::lower_bound(at.begin(), at.end(),
                                         fromS + w * width);
        const auto hi = std::lower_bound(at.begin(), at.end(),
                                         fromS + (w + 1) * width);
        if (hi - lo >= 2)
            rates.push_back(static_cast<double>(hi - lo - 1) /
                            (*(hi - 1) - *lo));
    }
    return rates;
}

/**
 * The arrival rate at which p95 latency crosses the limit, linearly
 * interpolated between the highest step that met the limit and the
 * step above it that did not (a continuous estimate, where the ladder
 * alone would read only its step rates). A step that failed for
 * another reason than its p95 gives nothing to interpolate.
 */
double
crossingRate(const Step &pass, const Step *fail)
{
    if (!fail || fail->p95.value <= kLatencyLimitMs)
        return pass.rate;
    const double f = std::clamp((kLatencyLimitMs - pass.p95.value) /
                                    (fail->p95.value - pass.p95.value),
                                0.0, 1.0);
    return pass.rate + f * (fail->rate - pass.rate);
}

} // namespace

Outcome
runServe(const RunConfig &config)
{
    Outcome out;
    for (const MetricDef &m : perLayerMetrics())
        out.metrics[m.name] = 0.0;
    const std::string stateDir =
        ".bench_build/repobench-serve-" + std::to_string(getpid());

    // --- Set-up: automaton, stream traces, Server; median of repeats -
    std::vector<double> setupS;
    Nfa nfa;
    std::vector<StreamInput> inputs;
    std::unique_ptr<serve::Server> server;
    const int reps = config.trace ? 1 : std::max(1, config.setupReps);
    for (int rep = 0; rep < reps; ++rep) {
        server.reset();
        std::error_code ec; // a failed checkpoint dir only degrades
        std::filesystem::remove_all(stateDir, ec);
        std::filesystem::create_directories(stateDir, ec);
        inputs.clear();
        const auto t0 = Clock::now();
        {
            SpanScope span("workloads.build_nfa");
            nfa = buildBenchmark("Snort");
        }
        {
            SpanScope span("workloads.gen_trace");
            for (std::size_t i = 0; i < kStreamsPerStep; ++i)
                inputs.push_back(
                    {buildBenchmarkTrace(
                         nfa, "Snort", kStreamSymbols,
                         deriveSeed(config.seed, "stream:Snort", i)),
                     {}});
        }
        server = std::make_unique<serve::Server>(
            serveOptions(config, stateDir), nfa);
        setupS.push_back(msSince(t0) / 1e3);
    }
    out.metrics["setup_s"] = median(setupS);
    if (!server->status().ok()) {
        std::printf("server failed to start: %s\n",
                    server->status().toString().c_str());
        out.correct = false;
        out.attempted = 1;
        out.failed = 1;
        return out;
    }

    // --- Oracles, outside all timing ---------------------------------
    {
        SpanRecorder *recorder = activeRecorder();
        setActiveRecorder(nullptr);
        PapOptions o;
        o.engine = EngineKind::Sparse;
        for (StreamInput &in : inputs)
            in.oracle = runSequential(nfa, in.trace, o).reports;
        setActiveRecorder(recorder);
    }
    std::size_t oracleReports = 0;
    for (const StreamInput &in : inputs)
        oracleReports += in.oracle.size();
    std::printf("serve: Snort, %zu streams of %llu symbols per step "
                "(%zu oracle reports), %u workers, datapath=%s, p95 limit "
                "%.0f ms\n",
                inputs.size(),
                static_cast<unsigned long long>(kStreamSymbols),
                oracleReports,
                server->options().threads,
                server->stats().engineDatapath.c_str(),
                kLatencyLimitMs);

    auto &reg = obs::metrics();
    const std::uint64_t ckpt0 = reg.counter("serve.checkpoints.periodic");
    const std::uint64_t journal0 = reg.counter("serve.manifest.appends");
    const serve::ServerStats stats0 = server->stats();
    const double cpu0 = processCpuSeconds();

    std::vector<Step> steps;
    std::uint64_t requests = 1;
    const auto step = [&](const std::string &name, const Load &load) {
        steps.push_back(runStep(*server, name, load, inputs,
                                deriveSeed(config.seed, "arrivals:" + name),
                                requests));
        requests += steps.back().attempted;
        printStep(steps.back());
        return steps.back();
    };
    // Capacity: the completion rate with a fixed number of streams
    // open, so the workers never idle and the backlog cannot grow. One
    // saturate step runs before the rate steps and one after, so the
    // capacity samples the host across the whole run; it is the median
    // of their window rates. It rests on every stream of two long
    // steps, where the crossing rate rests on the tails of two steps.
    std::vector<double> capacityRates;
    const auto saturate = [&](const std::string &name) {
        const double seconds = std::max(1.0, config.seconds) / 2;
        const double warmup = std::min(kSaturateWarmupS, seconds / 4);
        const std::vector<double> rates = windowRates(
            step(name, Load{0.0, kSaturateInflight, seconds}), warmup,
            seconds);
        capacityRates.insert(capacityRates.end(), rates.begin(),
                             rates.end());
    };
    if (!config.trace)
        saturate("saturate1");
    const Step light = step("light", Load{kLightRate});
    const Step heavy = step("heavy", Load{kHeavyRate});

    // Untraced runs climb the ladder from heavy until a step misses
    // the limit; traced runs stop at heavy.
    double sustained = 0.0, capacity = 0.0;
    if (!config.trace) {
        std::optional<Step> pass, fail;
        if (heavy.meets())
            pass = heavy;
        else if (light.meets())
            pass = light, fail = heavy;
        double rate = kHeavyRate;
        for (int k = 0; k < kLadderSteps && pass && !fail; ++k) {
            rate *= kLadderGrowth;
            const Step s =
                step("ladder" + std::to_string(k + 1), Load{rate});
            if (s.meets())
                pass = s;
            else
                fail = s;
        }
        if (pass) {
            sustained = crossingRate(*pass, fail ? &*fail : nullptr);
        } else {
            std::printf("no step met the %.0f ms p95 limit\n",
                        kLatencyLimitMs);
        }
        saturate("saturate2");
        capacity = capacityRates.empty() ? 0.0 : median(capacityRates);
    }
    const double cpuS = processCpuSeconds() - cpu0;
    const serve::ServerStats stats1 = server->stats();

    std::uint64_t symbols = 0;
    std::vector<double> lateness;
    auto &mt = out.metrics;
    for (const Step &s : steps) {
        out.attempted += s.attempted;
        out.failed += s.failed;
        out.correct = out.correct && s.mismatches == 0;
        symbols += s.completed * kStreamSymbols;
        lateness.insert(lateness.end(), s.latenessMs.begin(),
                        s.latenessMs.end());
        mt["serve.shed"] += static_cast<double>(s.shed);
        mt["serve.open_ms"] += s.openMs;
        mt["serve.feed_wait_ms"] += s.feedWaitMs;
        mt["serve.finish_wait_ms"] += s.finishWaitMs;
        mt["serve.queue_depth_max"] = std::max<double>(
            mt["serve.queue_depth_max"], static_cast<double>(s.queueDepthMax));
    }
    // Per-stream means for the time metrics.
    for (const char *m :
         {"serve.open_ms", "serve.feed_wait_ms", "serve.finish_wait_ms"})
        mt[m] /= static_cast<double>(out.attempted);
    mt["symbols_per_s"] =
        capacity * static_cast<double>(kStreamSymbols);
    mt["cpu_ns_per_symbol"] =
        1e9 * cpuS / static_cast<double>(std::max<std::uint64_t>(1, symbols));
    mt["stream_p50_ms.light"] = light.p50.value;
    mt["stream_p95_ms.light"] = light.p95.value;
    mt["stream_p50_ms.heavy"] = heavy.p50.value;
    mt["stream_p95_ms.heavy"] = heavy.p95.value;
    mt["loadgen.lateness_ms.p50"] = percentile(lateness, 0.5).value;
    mt["loadgen.lateness_ms.max"] = pap::stats::maxOf(lateness);
    mt["serve.chunks_executed"] =
        static_cast<double>(stats1.chunksExecuted - stats0.chunksExecuted);
    mt["serve.chunks_recovered"] =
        static_cast<double>(stats1.chunksRecovered - stats0.chunksRecovered);
    mt["serve.checkpoints_periodic"] = static_cast<double>(
        reg.counter("serve.checkpoints.periodic") - ckpt0);
    mt["serve.manifest_appends"] =
        static_cast<double>(reg.counter("serve.manifest.appends") - journal0);
    mt["failed_frac"] = static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted);

    if (config.trace) {
        // Tracing overhead: heavy again with spans off, against the
        // traced heavy step's mean latency.
        SpanRecorder *recorder = activeRecorder();
        setActiveRecorder(nullptr);
        const Step plain = runStep(*server, "heavy-untraced",
                                   Load{kHeavyRate}, inputs,
                                   deriveSeed(config.seed, "arrivals:heavy"),
                                   0);
        setActiveRecorder(recorder);
        printStep(plain);
        out.attempted += plain.attempted;
        out.failed += plain.failed;
        out.correct = out.correct && plain.mismatches == 0;
        const auto mean = [](const std::vector<double> &v) {
            double sum = 0.0;
            for (const double x : v)
                sum += x;
            return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
        };
        mt["obs.trace_overhead_frac"] =
            mean(heavy.latencyMs) / mean(plain.latencyMs) - 1.0;
        if (recorder) {
            const auto byName =
                SpanRecorder::selfMsByName(recorder->spans());
            for (const char *n :
                 {"workloads.build_nfa", "workloads.gen_trace"}) {
                const auto it = byName.find(n);
                mt[std::string(n) + "_ms"] =
                    it == byName.end() ? 0.0 : it->second;
            }
        }
    } else {
        mt["peak_rss_mb"] = peakRssMb();
        std::printf("end-to-end (untraced):\n");
        const std::pair<const char *, const char *> shown[] = {
            {"setup_s", "s"},
            {"symbols_per_s", "sym/s"},
            {"cpu_ns_per_symbol", "ns/sym"},
            {"peak_rss_mb", "MiB"},
            {"failed_frac", "ratio"},
            {"stream_p50_ms.light", "ms"},
            {"stream_p95_ms.light", "ms"},
            {"stream_p50_ms.heavy", "ms"},
            {"stream_p95_ms.heavy", "ms"}};
        for (const auto &[m, unit] : shown)
            std::printf("  %-34s %16.6g %s\n", m, mt[m], unit);
        std::printf("  %-34s %16.6g streams/s\n", "sustained_streams_per_s",
                    sustained);
        std::printf("  %-34s %16.6g streams/s\n", "capacity_streams_per_s",
                    capacity);
    }
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(stateDir, ec);
    return out;
}

} // namespace repobench
