/**
 * @file
 * The table1-enum and table1-golden workloads: runPap over Table-1
 * rows at the bench default length (128 KiB times the registry's
 * traceScale), 4 ranks, threads = the host's hardware threads.
 *
 * An untraced run repeats passes over its rows for the measurement
 * budget and reports the median pass throughput. A traced run makes
 * a warm-up pass, alternates two untraced and two traced passes
 * (their ratio is the tracing overhead), then replays each row's
 * pipeline stage by stage through the modules' public functions
 * under spans: analysis, placement, partitioning, flow planning,
 * per-segment simulation, composition and the timeline. The replay must reproduce runPap's reports and
 * modeled cycles exactly, which also checks that the model does not
 * depend on the thread count (the replay runs on one thread).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "ap/placement.h"
#include "common/stats.h"
#include "engine/functional_engine.h"
#include "nfa/analysis.h"
#include "pap/composer.h"
#include "pap/flow_plan.h"
#include "pap/partitioner.h"
#include "pap/run_common.h"
#include "pap/runner.h"
#include "pap/segment_sim.h"
#include "pap/timeline.h"
#include "spans.h"
#include "workloads.h"
#include "workloads/benchmarks.h"

namespace repobench {

using namespace pap;

const std::vector<std::string> &
table1EnumRows()
{
    static const std::vector<std::string> rows = {
        "Dotstar03", "Dotstar06", "Dotstar09", "Dotstar",
        "Fermi",     "SPM",       "ClamAV"};
    return rows;
}

const std::vector<std::string> &
table1GoldenRows()
{
    static const std::vector<std::string> rows = {
        "Ranges05",  "Ranges1",     "ExactMatch",       "Bro217",
        "TCP",       "PowerEN1",    "RandomForest",     "Hamming",
        "Protomata", "Levenshtein", "EntityResolution", "Snort"};
    return rows;
}

namespace {

/** The paper's Fig. 8 geomean at 1 MB / 4 ranks. */
constexpr double kPaperGeomean = 18.8;
constexpr std::uint32_t kRanks = 4;

struct Row
{
    const BenchmarkInfo *info = nullptr;
    Nfa nfa;
    InputTrace input;
    SequentialResult oracle;
};

PapOptions
papOptions(const Row &row, const RunConfig &config)
{
    PapOptions o;
    o.routingMinHalfCores = row.info->paper.halfCores;
    o.threads = config.threads;
    o.faultInjector = config.faults;
    return o;
}

/**
 * Build every row's automaton and trace (the timed set-up). The
 * automata are the registry's Table-1 rows; the seed draws the traces.
 */
std::vector<Row>
buildRows(const RunConfig &config, const std::vector<std::string> &names)
{
    std::vector<Row> rows;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        Row row;
        row.info = &benchmarkInfo(name);
        const auto len = static_cast<std::uint64_t>(
            static_cast<double>(config.baseTraceLen) *
            row.info->traceScale);
        {
            SpanScope span("workloads.build_nfa", i + 1);
            row.nfa = buildBenchmark(name);
        }
        {
            SpanScope span("workloads.gen_trace", i + 1);
            row.input = buildBenchmarkTrace(
                row.nfa, name, len,
                deriveSeed(config.seed, "trace:" + name));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/** The modeled numbers a run must repeat exactly. */
struct Model
{
    Cycles papCycles = 0;
    Cycles baselineCycles = 0;
    double speedup = 0.0;
    std::uint64_t flowSymbolCycles = 0;
    std::uint64_t contextSwitches = 0;
    std::uint32_t svcBatches = 0;
    double avgTcpuCycles = 0.0;
    double avgActiveFlows = 0.0;
    bool goldenCapped = false;

    bool operator==(const Model &) const = default;
};

Model
modelOf(const PapResult &r)
{
    return {r.papCycles,       r.baselineCycles,  r.speedup,
            r.flowSymbolCycles, r.contextSwitches, r.svcBatches,
            r.avgTcpuCycles,   r.avgActiveFlows,  r.goldenCapped};
}

/** Per-run accounting shared by the untraced and traced paths. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t retried = 0;
    std::uint64_t recovered = 0;
    bool modelRepeats = true;
    std::vector<std::optional<Model>> models;
    /** Datapath runPap executed each row's flows on. */
    std::vector<std::string> datapaths;
};

/** Diff one runPap result against the row's oracle and first model. */
void
account(Tally &t, std::size_t i, const Row &row, const PapResult &r)
{
    ++t.attempted;
    t.datapaths[i] = r.engineDatapath;
    const bool mismatch =
        r.status.ok() && r.reports != row.oracle.reports;
    const bool failed = !r.status.ok() || mismatch || r.degraded ||
                        r.recovered || r.segmentsRetried > 0 ||
                        r.segmentsRecovered > 0;
    t.mismatches += mismatch;
    t.failed += failed;
    t.retried += r.segmentsRetried;
    t.recovered += r.segmentsRecovered;
    if (failed) {
        std::printf("FAILED row %s: status=%s mismatch=%d degraded=%d "
                    "recovered=%d retried=%u recovered_segments=%u\n",
                    row.info->name.c_str(),
                    r.status.toString().c_str(), mismatch, r.degraded,
                    r.recovered, r.segmentsRetried, r.segmentsRecovered);
        return; // a degraded run's model legitimately differs
    }
    if (!t.models[i])
        t.models[i] = modelOf(r);
    else if (!(*t.models[i] == modelOf(r))) {
        t.modelRepeats = false;
        std::printf("MODEL DRIFT row %s: modeled cycles differ between "
                    "passes\n",
                    row.info->name.c_str());
    }
}

/** One pass over every row; returns the summed runPap wall in ms. */
double
runPass(const std::vector<Row> &rows, const RunConfig &config,
        Tally &tally, std::vector<PapResult> *keep)
{
    double wall = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto t0 = Clock::now();
        PapResult r;
        {
            SpanScope span("pap.run", i + 1);
            r = runPap(rows[i].nfa, rows[i].input, ApConfig::d480(kRanks),
                       papOptions(rows[i], config));
        }
        wall += msSince(t0);
        account(tally, i, rows[i], r);
        if (keep)
            keep->push_back(std::move(r));
    }
    return wall;
}

double
geomeanSpeedup(const std::vector<std::optional<Model>> &models)
{
    std::vector<double> s;
    for (const auto &m : models)
        if (m)
            s.push_back(m->speedup);
    return s.empty() ? 1.0 : stats::geomean(s);
}

/** What the stage-by-stage replay of one row produced. */
struct Replay
{
    TimelineResult timeline;
    Cycles uncappedPapCycles = 0;
    std::vector<ReportEvent> reports;
    double segmentMsSum = 0.0;
    double segmentMsMax = 0.0;
};

/**
 * Replay runPap's barrier pipeline for @p row on the calling thread,
 * one span per stage, through each module's public functions.
 */
Replay
replayRow(const Row &row, const RunConfig &config, std::uint64_t request)
{
    const Nfa &nfa = row.nfa;
    const InputTrace &input = row.input;
    const ApConfig ap = ApConfig::d480(kRanks);
    PapOptions options = papOptions(row, config);
    options.faultInjector = nullptr;
    Replay out;
    std::vector<SegmentTimingInput> timing;
    {
        SpanScope rowSpan("table1.row", request);

        SequentialResult seq;
        {
            SpanScope span("engine.oracle", request);
            PapOptions o = options;
            o.engine = EngineKind::Sparse;
            seq = runSequential(nfa, input, o);
        }
        std::unique_ptr<RunContext> ctx;
        {
            SpanScope span("engine.compile", request);
            ctx = std::make_unique<RunContext>(nfa, options.engine,
                                               seq.activeDensity);
        }
        Components comps;
        std::vector<StateId> asg;
        std::unique_ptr<RangeAnalysis> ranges;
        {
            SpanScope span("nfa.analyze", request);
            comps = connectedComponents(nfa);
            asg = alwaysActiveStates(nfa);
            ranges = std::make_unique<RangeAnalysis>(nfa);
        }
        Placement placement;
        {
            SpanScope span("ap.place", request);
            placement = placeAutomaton(nfa, comps, ap,
                                       options.routingMinHalfCores);
        }
        const std::uint64_t min_seg = 2ull * options.tdmQuantum;
        const auto num_segments =
            static_cast<std::uint32_t>(std::max<std::uint64_t>(
                1, std::min<std::uint64_t>(placement.inputSegments(ap),
                                           input.size() / min_seg)));
        std::vector<Segment> segs;
        {
            SpanScope span("pap.partition", request);
            const PartitionProfile profile =
                choosePartitionSymbol(*ranges, input, num_segments);
            segs = partitionInput(input, profile.symbol, num_segments);
        }
        std::vector<FlowPlan> plans(segs.size());
        {
            SpanScope span("pap.plan", request);
            for (std::size_t j = 1; j < segs.size(); ++j)
                plans[j] = buildFlowPlan(nfa, comps, asg,
                                         input[segs[j].begin - 1],
                                         options);
        }

        // The ASG flow takes one SVC entry; larger plans run in
        // cache-sized batches (OverflowPolicy::Batch, the default).
        const std::uint32_t svc_capacity = ap.svcEntriesPerDevice;
        const std::uint32_t asg_slots = asg.empty() ? 0u : 1u;
        const std::uint32_t batch_cap = std::max<std::uint32_t>(
            1, svc_capacity - std::min(svc_capacity - 1, asg_slots));
        std::vector<SegmentRun> runs(segs.size());
        std::vector<std::uint32_t> batches(segs.size(), 1);
        {
            SpanScope span("pap.execute", request);
            const std::vector<StateId> no_asg;
            for (std::size_t j = 0; j < segs.size(); ++j) {
                SpanScope seg_span("pap.segment", request);
                const auto t0 = Clock::now();
                const Segment &s = segs[j];
                EngineScratch scratch(nfa.size());
                const FlowPlan &plan = plans[j];
                if (j == 0) {
                    runs[j] = runGoldenSegment(ctx->engines(),
                                               input.ptr(s.begin),
                                               s.begin, s.length(),
                                               scratch);
                } else if (plan.flows.size() <= batch_cap) {
                    runs[j] = runEnumSegment(ctx->engines(), plan, asg,
                                             input.ptr(s.begin), s.begin,
                                             s.length(), options,
                                             scratch);
                } else {
                    SegmentRun &run = runs[j];
                    run.segBegin = s.begin;
                    run.segLen = s.length();
                    const auto asg_id =
                        static_cast<FlowId>(plan.flows.size());
                    std::uint32_t b = 0;
                    for (std::size_t first = 0; first < plan.flows.size();
                         first += batch_cap, ++b) {
                        FlowPlan sub;
                        sub.flows.assign(
                            plan.flows.begin() + first,
                            plan.flows.begin() +
                                std::min<std::size_t>(plan.flows.size(),
                                                      first + batch_cap));
                        SegmentRun part = runEnumSegment(
                            ctx->engines(), sub, b == 0 ? asg : no_asg,
                            input.ptr(s.begin), s.begin, s.length(),
                            options, scratch, asg_id);
                        if (b == 0)
                            run.asgIndex = part.asgIndex;
                        for (auto &rec : part.flows) {
                            rec.batch = b;
                            run.flows.push_back(std::move(rec));
                        }
                    }
                    batches[j] = std::max(1u, b);
                }
                const double ms = msSince(t0);
                out.segmentMsSum += ms;
                out.segmentMsMax = std::max(out.segmentMsMax, ms);
            }
        }
        std::vector<SegmentTruth> truths(segs.size());
        {
            SpanScope span("pap.compose", request);
            std::vector<StateId> prev_final;
            for (std::size_t j = 0; j < segs.size(); ++j) {
                truths[j] = j == 0 ? composeGolden(runs[0])
                                   : composeEnum(ctx->compiled(), comps,
                                                 plans[j], runs[j],
                                                 prev_final);
                prev_final = truths[j].finalActive;
                out.reports.insert(out.reports.end(),
                                   truths[j].trueReports.begin(),
                                   truths[j].trueReports.end());
            }
            sortAndDedupReports(out.reports);
        }
        {
            SpanScope span("pap.timeline", request);
            timing.resize(segs.size());
            for (std::size_t j = 0; j < segs.size(); ++j) {
                SegmentTimingInput &t = timing[j];
                t.segLen = segs[j].length();
                t.totalEntries = truths[j].totalEntries;
                t.aliveEnumFlowsAtEnd = truths[j].aliveEnumFlowsAtEnd;
                t.hasEnumFlows = j > 0 && !plans[j].flows.empty();
                t.numBatches = batches[j];
                t.batchReloadCycles = ap.timing.stateVectorUploadCycles;
                t.svcCapacity = svc_capacity;
                t.svcPolicy = options.svcPolicy;
                for (const auto &rec : runs[j].flows) {
                    FlowTimingInfo info;
                    info.kind = rec.kind;
                    info.symbolsProcessed = rec.symbolsProcessed;
                    info.batch = rec.batch;
                    info.isTrue =
                        rec.kind != FlowKind::Enum ||
                        (rec.id < truths[j].flowTrue.size() &&
                         truths[j].flowTrue[rec.id] != 0);
                    t.flows.push_back(info);
                }
            }
            out.timeline = simulateTimeline(timing, seq.reports.size(),
                                            input.size(), options,
                                            ap.timing);
        }
    }
    // Outside the row span: what the golden-execution cap removed.
    options.applyGoldenCap = false;
    out.uncappedPapCycles =
        simulateTimeline(timing, row.oracle.reports.size(), input.size(),
                         options, ap.timing)
            .papCycles;
    return out;
}

void
printMetric(const std::string &name, double value, const char *unit)
{
    std::printf("  %-34s %16.6g %s\n", name.c_str(), value, unit);
}

} // namespace

Outcome
runTable1(const RunConfig &config, const std::vector<std::string> &names)
{
    Outcome out;
    for (const MetricDef &m : perLayerMetrics())
        out.metrics[m.name] = 0.0;

    // --- Set-up: automata and traces, timed; median over repeats ----
    std::vector<double> setupS;
    std::vector<Row> rows;
    const int reps = config.trace ? 1 : std::max(1, config.setupReps);
    for (int rep = 0; rep < reps; ++rep) {
        rows.clear();
        const auto t0 = Clock::now();
        rows = buildRows(config, names);
        setupS.push_back(msSince(t0) / 1e3);
    }
    out.metrics["setup_s"] = median(setupS);

    // --- Oracles, outside all timing ---------------------------------
    std::uint64_t passSymbols = 0;
    for (Row &row : rows) {
        PapOptions o;
        o.engine = EngineKind::Sparse;
        SpanRecorder *recorder = activeRecorder();
        setActiveRecorder(nullptr);
        row.oracle = runSequential(row.nfa, row.input, o);
        setActiveRecorder(recorder);
        passSymbols += row.input.size();
    }

    Tally tally;
    tally.models.resize(rows.size());
    tally.datapaths.resize(rows.size());
    std::vector<double> passRates, passCpuNs;
    std::vector<std::vector<double>> rowWallMs(rows.size());
    std::vector<PapResult> traced;
    double untracedWall = 0.0, tracedWall = 0.0;

    if (!config.trace) {
        const auto t0 = Clock::now();
        for (int pass = 0; pass < config.minPasses ||
                           msSince(t0) < 1e3 * config.seconds;
             ++pass) {
            std::vector<PapResult> results;
            const double cpu0 = processCpuSeconds();
            const double wall = runPass(rows, config, tally, &results);
            passCpuNs.push_back(1e9 * (processCpuSeconds() - cpu0) /
                                static_cast<double>(passSymbols));
            for (std::size_t i = 0; i < rows.size(); ++i)
                rowWallMs[i].push_back(results[i].attrib.wallMs);
            passRates.push_back(static_cast<double>(passSymbols) /
                                (wall / 1e3));
        }
    } else {
        // A warm-up pass first (the first runPap calls fault in fresh
        // heap pages), then alternate untraced and traced passes so
        // drift falls on both sides of the overhead ratio.
        SpanRecorder *recorder = activeRecorder();
        setActiveRecorder(nullptr);
        runPass(rows, config, tally, nullptr);
        for (int pass = 0; pass < 2; ++pass) {
            setActiveRecorder(nullptr);
            untracedWall += runPass(rows, config, tally, nullptr);
            setActiveRecorder(recorder);
            traced.clear();
            tracedWall += runPass(rows, config, tally, &traced);
        }
    }

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.correct = tally.mismatches == 0 && tally.modelRepeats;
    const double geomean = geomeanSpeedup(tally.models);
    out.metrics["symbols_per_s"] = median(passRates);
    out.metrics["cpu_ns_per_symbol"] = median(passCpuNs);
    out.metrics["modeled_speedup_geomean"] = geomean;
    out.metrics["failed_frac"] = static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted);
    out.metrics["pap.segments_retried"] =
        static_cast<double>(tally.retried);
    out.metrics["pap.segments_recovered"] =
        static_cast<double>(tally.recovered);

    std::printf("rows (%zu, %llu symbols per pass):\n", rows.size(),
                static_cast<unsigned long long>(passSymbols));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &m = tally.models[i];
        std::printf("  %-17s len=%-7zu reports=%-6zu datapath=%-14s "
                    "speedup=%-8.4g pap_cycles=%-9llu "
                    "baseline_cycles=%-9llu wall_ms_median=%.1f\n",
                    rows[i].info->name.c_str(), rows[i].input.size(),
                    rows[i].oracle.reports.size(),
                    tally.datapaths[i].c_str(),
                    m ? m->speedup : 0.0,
                    static_cast<unsigned long long>(m ? m->papCycles : 0),
                    static_cast<unsigned long long>(
                        m ? m->baselineCycles : 0),
                    median(rowWallMs[i]));
    }
    std::printf("runPap calls: %llu attempted, %llu failed, %llu report "
                "mismatches, modeled cycles repeat exactly: %s\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.mismatches),
                tally.modelRepeats ? "yes" : "NO");

    if (!config.trace) {
        out.metrics["peak_rss_mb"] = peakRssMb();
        std::printf("pass throughput (sym/s):");
        for (const double r : passRates)
            std::printf(" %.0f", r);
        std::printf("\nend-to-end (%zu passes; untraced):\n",
                    passRates.size());
        printMetric("setup_s", out.metrics["setup_s"], "s");
        printMetric("symbols_per_s", out.metrics["symbols_per_s"],
                    "sym/s");
        printMetric("cpu_ns_per_symbol",
                    out.metrics["cpu_ns_per_symbol"], "ns/sym");
        printMetric("peak_rss_mb", out.metrics["peak_rss_mb"], "MiB");
        printMetric("failed_frac", out.metrics["failed_frac"], "ratio");
        std::printf("  %-34s %16.6g x   (paper Fig. 8, 1 MB / 4 ranks: "
                    "%.1fx; the model is unvalidated per row)\n",
                    "modeled_speedup_geomean", geomean, kPaperGeomean);
        return out;
    }

    // --- Traced run: per-layer numbers -------------------------------
    auto &mt = out.metrics;
    mt["obs.trace_overhead_frac"] = tracedWall / untracedWall - 1.0;
    std::uint64_t flowSymbols = 0, bytesTouched = 0, truePaths = 0,
                  totalPaths = 0;
    double tcpuSum = 0.0, workersExec = 0.0, deviceExec = 0.0,
           residualMax = 0.0;
    std::vector<std::string> buckets;
    for (const MetricDef &m : perLayerMetrics())
        if (m.name.rfind("attrib.", 0) == 0 && m.name != "attrib.wall_ms")
            buckets.push_back(m.name.substr(7, m.name.size() - 10));
    for (const PapResult &r : traced) {
        flowSymbols += r.flowSymbolCycles;
        bytesTouched += r.engineBytesTouched;
        tcpuSum += r.avgTcpuCycles;
        mt["ap.svc_batches_max"] = std::max<double>(
            mt["ap.svc_batches_max"], r.svcBatches);
        mt["ap.golden_capped_rows"] += r.goldenCapped;
        mt["ap.pap_cycles"] += static_cast<double>(r.papCycles);
        mt["ap.baseline_cycles"] += static_cast<double>(r.baselineCycles);
        mt["pap.segments"] += r.numSegments;
        mt["pap.flows_in_range"] += r.flowsInRange / rows.size();
        mt["pap.flows_after_cc"] += r.flowsAfterCc / rows.size();
        mt["pap.flows_after_parent"] += r.flowsAfterParent / rows.size();
        mt["pap.active_flows_avg"] += r.avgActiveFlows / rows.size();
        for (const auto &d : r.segments) {
            truePaths += d.truePaths;
            totalPaths += d.totalPaths;
        }
        mt["attrib.wall_ms"] += r.attrib.wallMs;
        for (const std::string &b : buckets)
            mt["attrib." + b + "_ms"] += r.attrib.bucket(b).ms;
        workersExec += r.attrib.bucket("workers.execute").ms;
        deviceExec += r.attrib.bucket("device.execute").ms;
        residualMax = std::max(
            residualMax, std::abs(r.attrib.wallChargedMs() - r.attrib.wallMs));
    }
    mt["ap.tcpu_cycles_avg"] = tcpuSum / traced.size();
    mt["engine.bytes_per_symbol"] =
        flowSymbols ? static_cast<double>(bytesTouched) / flowSymbols : 0.0;
    mt["engine.flow_steps_per_symbol"] =
        static_cast<double>(flowSymbols) / passSymbols;
    mt["pap.true_path_ratio"] =
        totalPaths ? static_cast<double>(truePaths) / totalPaths : 1.0;
    mt["pap.parallel_efficiency"] =
        deviceExec > 0.0 ? workersExec / (deviceExec * config.threads)
                         : 0.0;
    mt["obs.attrib_residual_ms_max"] = residualMax;
    // Wall buckets sum to the measured wall by construction; allow
    // only timer rounding.
    const bool attribSums = residualMax <= 0.05;

    std::printf("modeled-cycle ledger per row (stage replay on 1 thread "
                "vs runPap on %u):\n",
                config.threads);
    bool replayMatches = true;
    double gapMs = 0.0, coverageMin = 1.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Replay rep = replayRow(rows[i], config, i + 1);
        const PapResult &r = traced[i];
        const bool same = rep.reports == rows[i].oracle.reports &&
                          rep.timeline.papCycles == r.papCycles &&
                          rep.timeline.baselineCycles == r.baselineCycles &&
                          rep.timeline.speedup == r.speedup;
        replayMatches = replayMatches && (same || r.degraded);
        mt["ap.busy_cycles"] += static_cast<double>(rep.timeline.busyCycles);
        mt["ap.switch_cycles"] +=
            static_cast<double>(rep.timeline.switchCycles);
        mt["ap.reupload_cycles"] +=
            static_cast<double>(rep.timeline.reuploadCycles);
        const double capCycles = static_cast<double>(
            rep.uncappedPapCycles - rep.timeline.papCycles);
        mt["ap.golden_cap_cycles"] += capCycles;
        mt["pap.segment_ms.sum"] += rep.segmentMsSum;
        mt["pap.segment_ms.max"] += rep.segmentMsMax;
        std::printf("  %-17s pap=%llu baseline=%llu busy=%llu switch=%llu "
                    "reupload=%llu tcpu_avg=%.1f golden_cap=%.0f "
                    "speedup=%.4g replay=%s\n",
                    rows[i].info->name.c_str(),
                    static_cast<unsigned long long>(r.papCycles),
                    static_cast<unsigned long long>(r.baselineCycles),
                    static_cast<unsigned long long>(rep.timeline.busyCycles),
                    static_cast<unsigned long long>(
                        rep.timeline.switchCycles),
                    static_cast<unsigned long long>(
                        rep.timeline.reuploadCycles),
                    r.avgTcpuCycles, capCycles, r.speedup,
                    same ? "identical" : "DIFFERS");
    }

    // Layer self times and the share of each replayed row the stage
    // spans cover (the rest is a gap no span explains).
    if (SpanRecorder *recorder = activeRecorder()) {
        const auto spans = recorder->spans();
        const auto self = SpanRecorder::selfMs(spans);
        const auto byName = SpanRecorder::selfMsByName(spans);
        const auto get = [&](const char *n) {
            const auto it = byName.find(n);
            return it == byName.end() ? 0.0 : it->second;
        };
        for (const auto &s : spans)
            if (s.name == "table1.row") {
                const double dur = s.endMs - s.startMs;
                gapMs += self.at(s.id);
                coverageMin =
                    std::min(coverageMin, 1.0 - self.at(s.id) / dur);
            }
        mt["workloads.build_nfa_ms"] = get("workloads.build_nfa");
        mt["workloads.gen_trace_ms"] = get("workloads.gen_trace");
        mt["nfa.analyze_ms"] = get("nfa.analyze");
        mt["ap.place_ms"] = get("ap.place");
        mt["engine.compile_ms"] = get("engine.compile");
        mt["engine.oracle_ms"] = get("engine.oracle");
        mt["engine.oracle_symbols_per_s"] =
            static_cast<double>(passSymbols) / (get("engine.oracle") / 1e3);
        mt["pap.partition_ms"] = get("pap.partition");
        mt["pap.plan_ms"] = get("pap.plan");
        mt["pap.compose_ms"] = get("pap.compose");
        mt["pap.timeline_ms"] = get("pap.timeline");
    }
    mt["obs.span_gap_ms"] = gapMs;
    mt["obs.span_coverage_min"] = coverageMin;
    out.correct = out.correct && replayMatches && attribSums;
    if (!attribSums)
        std::printf("INVARIANT attrib wall buckets miss attrib.wallMs by "
                    "%.4f ms\n",
                    residualMax);
    if (!replayMatches)
        std::printf("INVARIANT stage replay differs from runPap\n");
    std::printf("traced run: trace overhead %.4f, span coverage of "
                "replayed rows >= %.4f (gap %.3f ms)\n",
                mt["obs.trace_overhead_frac"], coverageMin, gapMs);
    return out;
}

} // namespace repobench
