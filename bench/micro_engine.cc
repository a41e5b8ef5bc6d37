/**
 * @file
 * google-benchmark micro-benchmarks for the simulation substrate:
 * functional-engine symbol throughput (a start-mode golden flow on
 * Snort, and SPM enumeration flows, which carry thousands of
 * self-looping gap states), bit-vector operations,
 * character-class tests, flow-plan construction, and the range
 * analysis. These bound the wall-clock cost of the figure harnesses.
 */

#include <benchmark/benchmark.h>

#include "common/bitvector.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "engine/functional_engine.h"
#include "nfa/analysis.h"
#include "pap/flow_plan.h"
#include "pap/partitioner.h"
#include "workloads/benchmarks.h"
#include "workloads/trace_gen.h"

namespace {

using namespace pap;

/** Shared fixtures (built once; benchmarks only read them). */
const Nfa &
snortNfa()
{
    static const Nfa nfa = buildBenchmark("Snort");
    return nfa;
}

const InputTrace &
snortTrace()
{
    static const InputTrace t =
        buildBenchmarkTrace(snortNfa(), "Snort", 1 << 16);
    return t;
}

void
BM_EngineThroughput(benchmark::State &state)
{
    const CompiledNfa cnfa(snortNfa());
    FunctionalEngine engine(cnfa, /*starts=*/true);
    const InputTrace &trace = snortTrace();
    for (auto _ : state) {
        engine.reset(cnfa.initialActive(), 0);
        engine.run(trace.begin(), trace.size());
        benchmark::DoNotOptimize(engine.activeCount());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_EngineThroughput)->Unit(benchmark::kMillisecond);

/**
 * SPM enumeration flows over one benchmark-trace segment: the 128 KiB
 * seed-1 benchmark trace is cut into 32 segments at the partitioner's
 * boundary symbol, and every flow of segment 1's FlowPlan (start
 * machinery off, seeded from the plan) runs over that segment. No
 * convergence or deactivation: this is the engine layer alone.
 * Throughput counts flow-symbols (flows x segment length).
 */
void
BM_EnumFlowThroughput(benchmark::State &state)
{
    static const Nfa nfa = buildBenchmark("SPM");
    static const InputTrace trace =
        buildBenchmarkTrace(nfa, "SPM", 128 * 1024, 1);
    const CompiledNfa cnfa(nfa);
    const PartitionProfile profile =
        choosePartitionSymbol(RangeAnalysis(nfa), trace, 32);
    const std::vector<Segment> segs =
        partitionInput(trace, profile.symbol, 32);
    const Segment &seg = segs.at(1);
    const FlowPlan plan =
        buildFlowPlan(nfa, connectedComponents(nfa),
                      alwaysActiveStates(nfa), trace[seg.begin - 1],
                      PapOptions{});
    EngineScratch scratch(cnfa.size());
    std::uint64_t flow_symbols = 0;
    for (auto _ : state) {
        for (const FlowSpec &spec : plan.flows) {
            FunctionalEngine engine(cnfa, /*starts=*/false, &scratch);
            engine.reset(spec.seed, seg.begin);
            engine.run(trace.ptr(seg.begin), seg.length());
            benchmark::DoNotOptimize(engine.activeCount());
            flow_symbols += seg.length();
        }
    }
    state.counters["flows"] = static_cast<double>(plan.flows.size());
    state.SetItemsProcessed(static_cast<std::int64_t>(flow_symbols));
}
BENCHMARK(BM_EnumFlowThroughput)->Unit(benchmark::kMillisecond);

void
BM_BitVectorUnion(benchmark::State &state)
{
    const std::size_t bits = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    BitVector a(bits), b(bits);
    for (std::size_t i = 0; i < bits / 16; ++i) {
        a.set(rng.nextBelow(bits));
        b.set(rng.nextBelow(bits));
    }
    for (auto _ : state) {
        BitVector c = a;
        c |= b;
        benchmark::DoNotOptimize(c.count());
    }
}
BENCHMARK(BM_BitVectorUnion)->Arg(1 << 10)->Arg(1 << 15)->Arg(1 << 17);

void
BM_CharClassTest(benchmark::State &state)
{
    Rng rng(2);
    CharClass cls = CharClass::range('a', 'z');
    std::uint64_t hits = 0;
    for (auto _ : state) {
        hits += cls.test(static_cast<Symbol>(rng.next() & 0xff));
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_CharClassTest);

void
BM_FlowPlanConstruction(benchmark::State &state)
{
    const Nfa &nfa = snortNfa();
    const Components comps = connectedComponents(nfa);
    const std::vector<StateId> asg = alwaysActiveStates(nfa);
    const PapOptions options;
    for (auto _ : state) {
        const FlowPlan plan =
            buildFlowPlan(nfa, comps, asg, '\n', options);
        benchmark::DoNotOptimize(plan.flows.size());
    }
}
BENCHMARK(BM_FlowPlanConstruction)->Unit(benchmark::kMillisecond);

void
BM_RangeAnalysis(benchmark::State &state)
{
    const Nfa &nfa = snortNfa();
    for (auto _ : state) {
        const RangeAnalysis ranges(nfa);
        benchmark::DoNotOptimize(ranges.minRange());
    }
}
BENCHMARK(BM_RangeAnalysis)->Unit(benchmark::kMillisecond);

void
BM_StateVectorHash(benchmark::State &state)
{
    const CompiledNfa cnfa(snortNfa());
    FunctionalEngine engine(cnfa, /*starts=*/true);
    engine.reset(cnfa.initialActive(), 0);
    const InputTrace &trace = snortTrace();
    engine.run(trace.begin(), std::min<std::size_t>(4096,
                                                    trace.size()));
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.stateHash());
}
BENCHMARK(BM_StateVectorHash);

} // namespace

BENCHMARK_MAIN();
