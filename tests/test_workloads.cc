/**
 * @file
 * Workload generator tests: determinism, structural conformance of
 * the synthetic benchmarks to their Table-1 profiles, the p_m trace
 * model, and the pinned benchmark traces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <utility>

#include "engine/functional_engine.h"
#include "nfa/analysis.h"
#include "nfa/builders.h"
#include "nfa/nfa_io.h"
#include "workloads/benchmarks.h"
#include "workloads/domain_gen.h"
#include "workloads/ruleset_gen.h"
#include "workloads/trace_gen.h"

namespace pap {
namespace {

TEST(Workloads, RulesetGenerationIsDeterministic)
{
    RulesetParams p;
    p.count = 50;
    p.seed = 7;
    const auto a = generateRuleset(p);
    const auto b = generateRuleset(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].pattern, b[i].pattern);
    p.seed = 8;
    const auto c = generateRuleset(p);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= (a[i].pattern != c[i].pattern);
    EXPECT_TRUE(any_diff);
}

TEST(Workloads, RulesetPatternsCompile)
{
    RulesetParams p;
    p.count = 120;
    p.dotstarFraction = 0.2;
    p.classFraction = 0.3;
    p.anyFraction = 0.1;
    p.boundedRepFraction = 0.2;
    p.altFraction = 0.3;
    p.separatorFraction = 0.3;
    p.firstAtomPool = 20;
    p.seed = 3;
    const Nfa nfa = buildRulesetAutomaton(p, "mix", true);
    EXPECT_GT(nfa.size(), 500u);
    nfa.validate();
}

TEST(Workloads, RegistryHasNineteenBenchmarksInTableOrder)
{
    const auto &registry = benchmarkRegistry();
    ASSERT_EQ(registry.size(), 19u);
    EXPECT_EQ(registry.front().name, "Dotstar03");
    EXPECT_EQ(registry.back().name, "ClamAV");
    std::set<std::string> names;
    for (const auto &info : registry)
        EXPECT_TRUE(names.insert(info.name).second);
}

TEST(Workloads, BenchmarksMatchTableProfiles)
{
    // Structural conformance of every synthetic rebuild: state count
    // within 2x of Table 1 (documented deviations: SPM, Hamming,
    // Levenshtein, EntityResolution) and component count within 2x.
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        nfa.validate();
        const double state_ratio =
            static_cast<double>(nfa.size()) / info.paper.states;
        EXPECT_GT(state_ratio, 0.30) << info.name;
        EXPECT_LT(state_ratio, 2.0) << info.name;
        const Components comps = connectedComponents(nfa);
        const double cc_ratio =
            static_cast<double>(comps.count) / info.paper.components;
        EXPECT_GT(cc_ratio, 0.5) << info.name;
        EXPECT_LT(cc_ratio, 3.0) << info.name;
    }
}

TEST(Workloads, BenchmarkBuildsAreDeterministic)
{
    const Nfa a = buildBenchmark("Bro217");
    const Nfa b = buildBenchmark("Bro217");
    ASSERT_EQ(a.size(), b.size());
    for (StateId q = 0; q < a.size(); ++q) {
        ASSERT_EQ(a[q].label, b[q].label);
        ASSERT_EQ(a[q].succ, b[q].succ);
    }
}

TEST(Workloads, RangeOneBenchmarksHaveTinyBoundaryRanges)
{
    for (const char *name : {"Ranges05", "Ranges1", "ExactMatch"}) {
        const Nfa nfa = buildBenchmark(name);
        const RangeAnalysis ranges(nfa);
        EXPECT_LE(ranges.rangeSize('\n'), 1u) << name;
    }
}

TEST(Workloads, SpmRangeDominatedByGapStates)
{
    const Nfa nfa = buildBenchmark("SPM");
    const RangeAnalysis ranges(nfa);
    // Every item symbol's range includes all gap states and their
    // successors: about 4 per pattern.
    EXPECT_NEAR(static_cast<double>(ranges.rangeSize('0')),
                4.0 * 5025, 0.15 * 4 * 5025);
}

TEST(Workloads, TraceGeneratorDeterministicPerSeed)
{
    const Nfa nfa = buildExactMatchSet({"abc"}, "m");
    TraceGenOptions opt;
    opt.baseAlphabet = alphabetFromString("abcx");
    const InputTrace t1 = generateTrace(nfa, 2000, opt, 5);
    const InputTrace t2 = generateTrace(nfa, 2000, opt, 5);
    const InputTrace t3 = generateTrace(nfa, 2000, opt, 6);
    EXPECT_EQ(t1.symbols(), t2.symbols());
    EXPECT_NE(t1.symbols(), t3.symbols());
}

TEST(Workloads, SeparatorInjectionPeriod)
{
    const Nfa nfa = buildExactMatchSet({"ab"}, "m");
    TraceGenOptions opt;
    opt.baseAlphabet = alphabetFromString("ab");
    opt.separator = 'Z';
    opt.separatorPeriod = 10;
    const InputTrace t = generateTrace(nfa, 100, opt, 1);
    for (std::size_t i = 9; i < t.size(); i += 10)
        EXPECT_EQ(t[i], 'Z');
}

TEST(Workloads, HigherPmDrivesMoreMatches)
{
    const Nfa nfa =
        buildExactMatchSet({"abcde", "bcdef", "cdefg"}, "m");
    TraceGenOptions low, high;
    low.baseAlphabet = high.baseAlphabet =
        alphabetFromString("abcdefgh");
    low.pm = 0.05;
    high.pm = 0.9;
    const InputTrace tl = generateTrace(nfa, 40000, low, 3);
    const InputTrace th = generateTrace(nfa, 40000, high, 3);
    auto count_reports = [&](const InputTrace &t) {
        CompiledNfa cnfa(nfa);
        FunctionalEngine e(cnfa, true);
        e.reset(cnfa.initialActive(), 0);
        e.run(t.begin(), t.size());
        return e.reports().size();
    };
    EXPECT_GT(count_reports(th), 4 * count_reports(tl));
}

TEST(Workloads, BenchmarkTracesArePinned)
{
    // The benchmark inputs of every repo benchmark row and of
    // `papsim gentrace`: a generator change (say, a new engine layout
    // leaking into the order it draws active states from) must not
    // silently change them. FNV-1a of the seed-1, 8 KiB traces.
    const std::pair<const char *, std::uint64_t> kPinned[] = {
        {"SPM", 0x75cfce140f35574bull},
        {"Dotstar06", 0x4be3520440401b96ull},
        {"Snort", 0x05e23d9036d6e197ull},
        {"Fermi", 0xc15419914bd65974ull},
        {"ClamAV", 0x70ec08e3fa1b72c0ull},
    };
    for (const auto &[name, pinned] : kPinned) {
        const InputTrace t =
            buildBenchmarkTrace(buildBenchmark(name), name, 8192, 1);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::size_t i = 0; i < t.size(); ++i) {
            h ^= t[i];
            h *= 0x100000001b3ull;
        }
        EXPECT_EQ(h, pinned) << name;
    }
}

TEST(Workloads, BenchmarkTraceUsesBenchmarkAlphabet)
{
    const Nfa nfa = buildBenchmark("RandomForest");
    const InputTrace t = buildBenchmarkTrace(nfa, "RandomForest", 4096);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 'A');
        EXPECT_LE(t[i], 'P');
    }
}

TEST(Workloads, DomainGeneratorsProduceExpectedShapes)
{
    const Nfa fermi = buildFermi(5, 50, 20, 1);
    const Components fermi_comps = connectedComponents(fermi);
    // One dense mesh + 20 tracks.
    EXPECT_EQ(fermi_comps.count, 21u);

    const Nfa rf = buildRandomForest(10, 8, 2);
    EXPECT_EQ(rf.size(), 80u);
    EXPECT_EQ(connectedComponents(rf).count, 10u);

    const Nfa er = buildEntityResolution(3, 20, 3);
    EXPECT_EQ(connectedComponents(er).count, 3u);

    const Nfa clam = buildClamAv(10, 20, 30, 0.1, 4);
    EXPECT_EQ(connectedComponents(clam).count, 10u);
    EXPECT_GE(clam.size(), 200u);

    const Nfa spm = buildSpm(10, 7, 5);
    EXPECT_EQ(spm.size(), 10u * 9u);
}

TEST(Workloads, BenchmarkSerializationRoundTrip)
{
    const Nfa nfa = buildBenchmark("Bro217");
    std::stringstream ss;
    saveNfa(nfa, ss);
    const Nfa back = loadNfa(ss);
    EXPECT_EQ(back.size(), nfa.size());
    EXPECT_EQ(back.edgeCount(), nfa.edgeCount());
}

} // namespace
} // namespace pap
