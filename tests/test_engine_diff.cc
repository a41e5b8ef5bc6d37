/**
 * @file
 * Differential tests of the sparse FunctionalEngine against the
 * reference interpreter (referenceRun): step by step on random
 * automata in start mode and in enumeration mode with random seeds,
 * across overwriteActive, and on a 16K-state automaton. Whole PAP
 * runs over that automaton must be byte-identical (reports, cycle
 * counts, per-segment facts) across thread counts, pipeline modes and
 * a checkpoint resume.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "common/charclass.h"
#include "common/error.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "engine/functional_engine.h"
#include "engine/reference_engine.h"
#include "engine/simd.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "pap/exec/checkpoint.h"
#include "pap/runner.h"
#include "workload_helpers.h"

namespace pap {
namespace {

std::vector<ReportEvent>
sortedReports(std::vector<ReportEvent> raw)
{
    sortAndDedupReports(raw);
    return raw;
}

/**
 * @p nfa with its start configuration replaced by @p seed: the seeded
 * states become StartOfData (enabled before the first symbol) and
 * every other start becomes None, except that AllInput starts stay
 * when @p keep_all_input. referenceRun over the result is the
 * reference for an engine seeded with @p seed — in enumeration mode
 * (no start machinery, @p keep_all_input false) or in start mode.
 */
Nfa
reseeded(const Nfa &nfa, const std::vector<StateId> &seed,
         bool keep_all_input)
{
    Nfa out = nfa;
    for (StateId q = 0; q < out.size(); ++q) {
        NfaState &st = out.mutableState(q);
        if (!(keep_all_input && st.start == StartType::AllInput))
            st.start = StartType::None;
    }
    for (const StateId q : seed)
        if (out[q].start == StartType::None)
            out.mutableState(q).start = StartType::StartOfData;
    out.finalize();
    return out;
}

/** The reference's enabled set, minus AllInput starts when the engine
 *  runs start machinery (it keeps them out of its active list). */
std::vector<StateId>
expectedActive(const Nfa &ref_nfa, const std::set<StateId> &enabled,
               bool starts)
{
    std::vector<StateId> out;
    for (const StateId q : enabled)
        if (!starts || ref_nfa[q].start != StartType::AllInput)
            out.push_back(q);
    return out;
}

/**
 * Step @p engine over @p t, comparing its active set with the
 * reference run of @p ref_nfa after every @p every-th symbol and its
 * sorted reports at the end.
 */
void
expectMatchesReference(FunctionalEngine &engine, const Nfa &ref_nfa,
                       const InputTrace &t, bool starts,
                       std::uint64_t every, const std::string &what)
{
    const ReferenceResult ref =
        referenceRun(ref_nfa, t.symbols(), /*record_sets=*/true);
    for (std::uint64_t i = 0; i < t.size(); ++i) {
        engine.step(t[i]);
        if (i % every != 0 && i + 1 != t.size())
            continue;
        const auto expect =
            expectedActive(ref_nfa, ref.enabledAfter[i], starts);
        ASSERT_EQ(engine.snapshot(), expect) << what << " at " << i;
        EXPECT_EQ(engine.activeCount(), expect.size()) << what;
        EXPECT_EQ(engine.dead(), expect.empty()) << what;
    }
    EXPECT_EQ(engine.cursor(), t.size()) << what;
    EXPECT_EQ(sortedReports(engine.takeReports()), ref.reports) << what;
}

TEST(EngineDiff, FuzzMatchesReferenceStepByStep)
{
    Rng rng(1234);
    for (int iter = 0; iter < 40; ++iter) {
        const Nfa nfa = randomNfa(rng, 4);
        const CompiledNfa cnfa(nfa);
        const InputTrace t =
            randomTextTrace(rng, 256 + rng.nextBelow(512), "abcdefgh\n ");
        for (const bool starts : {true, false}) {
            // Start mode seeds the initial active set like a fresh
            // flow; enum mode seeds a random state subset.
            std::vector<StateId> seed = cnfa.initialActive();
            if (!starts) {
                seed.clear();
                for (StateId q = 0; q < nfa.size(); ++q)
                    if (rng.nextBool(0.25))
                        seed.push_back(q);
            }
            FunctionalEngine engine(cnfa, starts);
            engine.reset(seed);
            expectMatchesReference(
                engine, starts ? nfa : reseeded(nfa, seed, false), t,
                starts, 17,
                "iter " + std::to_string(iter) + " starts " +
                    std::to_string(starts));
        }
    }
}

TEST(EngineDiff, RunBulkMatchesStepwise)
{
    Rng rng(99);
    for (const bool starts : {true, false}) {
        const Nfa nfa = randomNfa(rng, 3);
        const CompiledNfa cnfa(nfa);
        const InputTrace t = randomTextTrace(rng, 2048, "abcdefgh");
        std::vector<StateId> seed = cnfa.initialActive();
        if (!starts)
            for (StateId q = 0; q < nfa.size(); q += 3)
                seed.push_back(q);
        FunctionalEngine bulk(cnfa, starts);
        FunctionalEngine stepwise(cnfa, starts);
        bulk.reset(seed, 500);
        stepwise.reset(seed, 500);
        bulk.run(t.begin(), t.size());
        for (std::uint64_t i = 0; i < t.size(); ++i)
            stepwise.step(t[i]);
        EXPECT_EQ(bulk.snapshot(), stepwise.snapshot());
        EXPECT_EQ(bulk.stateHash(), stepwise.stateHash());
        EXPECT_TRUE(bulk.sameActiveSet(stepwise));
        EXPECT_EQ(bulk.cursor(), stepwise.cursor());
        const EngineCounters &a = bulk.counters();
        const EngineCounters &b = stepwise.counters();
        EXPECT_EQ(a.symbols, b.symbols);
        EXPECT_EQ(a.matches, b.matches);
        EXPECT_EQ(a.enables, b.enables);
        EXPECT_EQ(a.bytesTouched, b.bytesTouched);
        EXPECT_EQ(a.densityOctiles, b.densityOctiles);
        EXPECT_EQ(bulk.takeReports(), stepwise.takeReports());
    }
}

TEST(EngineDiff, OverwriteActiveAppliesSameFiltering)
{
    // overwriteActive drops AllInput starts when start machinery is
    // live, exactly like reset(), and keeps them otherwise; the run
    // that follows matches the reference seeded with the survivors.
    Rng rng(7);
    const Nfa nfa = compileRuleset({{".*ab", 1}, {"cd", 2}}, "m");
    const CompiledNfa cnfa(nfa);
    const InputTrace t = randomTextTrace(rng, 512, "abcd");
    std::vector<StateId> all;
    for (StateId q = 0; q < nfa.size(); ++q)
        all.push_back(q);
    for (const bool starts : {true, false}) {
        FunctionalEngine engine(cnfa, starts);
        engine.reset(cnfa.initialActive());
        engine.run(t.begin(), 100);
        engine.overwriteActive(all);
        std::vector<StateId> kept;
        for (const StateId q : all)
            if (!starts || !cnfa.isAllInputStart(q))
                kept.push_back(q);
        EXPECT_EQ(engine.snapshot(), kept) << "starts " << starts;
        EXPECT_EQ(engine.cursor(), 100u) << "starts " << starts;
        engine.takeReports(); // drop the reports from before it

        // The reference replays what follows the overwrite, seeded
        // with the survivors; a fresh engine reset() with the same
        // seed tracks it step by step.
        const InputTrace rest(std::vector<Symbol>(t.begin() + 100,
                                                  t.begin() + t.size()));
        const Nfa ref_nfa = reseeded(nfa, kept, starts);
        FunctionalEngine fresh(cnfa, starts);
        fresh.reset(all);
        expectMatchesReference(fresh, ref_nfa, rest, starts, 7,
                               "starts " + std::to_string(starts));

        engine.run(rest.begin(), rest.size());
        EXPECT_EQ(engine.snapshot(), fresh.snapshot());
        std::vector<ReportEvent> after = engine.takeReports();
        for (ReportEvent &e : after)
            e.offset -= 100;
        EXPECT_EQ(sortedReports(after),
                  referenceRun(ref_nfa, rest.symbols()).reports)
            << "starts " << starts;
    }
}

// --- Whole-run equivalence ------------------------------------------

ApConfig
smallBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

/** The figure-level facts two runs of one workload must share. */
void
expectSameRun(const PapResult &a, const PapResult &b)
{
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.papCycles, b.papCycles);
    EXPECT_EQ(a.baselineCycles, b.baselineCycles);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.numSegments, b.numSegments);
    EXPECT_DOUBLE_EQ(a.flowsInRange, b.flowsInRange);
    EXPECT_DOUBLE_EQ(a.avgActiveFlows, b.avgActiveFlows);
    EXPECT_DOUBLE_EQ(a.switchOverheadPct, b.switchOverheadPct);
    EXPECT_EQ(a.flowTransitions, b.flowTransitions);
    EXPECT_EQ(a.flowSymbolCycles, b.flowSymbolCycles);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t j = 0; j < a.segments.size(); ++j) {
        EXPECT_EQ(a.segments[j].begin, b.segments[j].begin);
        EXPECT_EQ(a.segments[j].length, b.segments[j].length);
        EXPECT_EQ(a.segments[j].flows, b.segments[j].flows);
        EXPECT_EQ(a.segments[j].deactivated,
                  b.segments[j].deactivated);
        EXPECT_EQ(a.segments[j].converged, b.segments[j].converged);
        EXPECT_EQ(a.segments[j].ranToEnd, b.segments[j].ranToEnd);
        EXPECT_EQ(a.segments[j].tDone, b.segments[j].tDone);
        EXPECT_EQ(a.segments[j].tResolve, b.segments[j].tResolve);
    }
}

// --- Large automata: the 16K-state regime ---------------------------

/**
 * A structured 16K-state automaton: chains of narrow single-letter
 * states, a sprinkling of always-on AllInput drivers that keep
 * re-seeding activity, a rare 'h' label that gives the partitioner a
 * small boundary range, and periodic reporting states. Activity stays
 * sparse (a few hundred of 16K+ states), the regime of the large
 * Table-1 rulesets.
 */
Nfa
largeSyntheticNfa(StateId states)
{
    Nfa nfa("large16k");
    const std::string letters = "abcdefg";
    for (StateId q = 0; q < states; ++q) {
        // Driver successors are the reporting states: they actually
        // fire (a driver re-enables them every cycle), unlike deep
        // chain positions that activity never reaches.
        const bool reporting = (q % 256) == 1;
        const ReportCode code =
            reporting ? static_cast<ReportCode>(1 + q % 31) : 0;
        if (q == 0) {
            nfa.addState(CharClass::single('a'), StartType::StartOfData,
                         reporting, code);
        } else if (q % 256 == 0) {
            // Always-on drivers: match every symbol, re-seed activity.
            nfa.addState(CharClass::all(), StartType::AllInput,
                         reporting, code);
        } else if (q % 1024 == 1) {
            // Rare label: the partitioner's small boundary range.
            nfa.addState(CharClass::single('h'), StartType::None,
                         reporting, code);
        } else {
            nfa.addState(CharClass::single(letters[q % 7]),
                         StartType::None, reporting, code);
        }
    }
    for (StateId q = 0; q < states; ++q) {
        // Chains that wrap within a 1024-state block keep activity
        // persistent without letting it saturate.
        const StateId block = q & ~StateId{1023};
        nfa.addEdge(q, block + ((q - block + 1) & 1023));
        if (q % 256 == 0) {
            // Self-loop keeps drivers alive in enum mode too, where
            // no start fold re-enables AllInput states.
            nfa.addEdge(q, q);
            if (q + 17 < states)
                nfa.addEdge(q, q + 17);
        }
    }
    nfa.finalize();
    return nfa;
}

TEST(EngineDiffLarge, SparseMatchesReferenceAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    const CompiledNfa cnfa(nfa);
    Rng rng(77);
    const InputTrace t = randomTextTrace(rng, 2048, "abcdefgh");
    for (const bool starts : {true, false}) {
        // Start mode seeds like a fresh run; enum mode (no start
        // fold) seeds the self-looping drivers plus a state spread,
        // like a flow plan would.
        std::vector<StateId> seed = cnfa.initialActive();
        if (!starts)
            for (StateId q = 0; q < nfa.size(); q += 128)
                seed.push_back(q);
        FunctionalEngine engine(cnfa, starts);
        engine.reset(seed);
        const Nfa ref_nfa = starts ? nfa : reseeded(nfa, seed, false);
        EXPECT_FALSE(referenceRun(ref_nfa, t.symbols()).reports.empty());
        expectMatchesReference(engine, ref_nfa, t, starts, 64,
                               "16K starts " + std::to_string(starts));
    }
}

TEST(EngineDiffLarge, PapRunsAreByteIdenticalAt16KStates)
{
    // The composed reports equal the sequential oracle's, and the
    // whole run is the same bytes on one host thread and on four.
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(88);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    PapOptions one_opt;
    one_opt.threads = 1;
    PapOptions four_opt;
    four_opt.threads = 4;
    const PapResult a = runPap(nfa, input, board, one_opt);
    const PapResult b = runPap(nfa, input, board, four_opt);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.engineDatapath, "sparse");
    EXPECT_GT(a.numSegments, 1u);
    EXPECT_EQ(a.reports, runSequential(nfa, input).reports);
    expectSameRun(a, b);
    EXPECT_FALSE(a.reports.empty());
}

TEST(EngineDiffLarge, PipelineOverlapIsByteIdenticalAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(91);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    PapOptions barrier_opt;
    barrier_opt.threads = 2;
    barrier_opt.pipeline = PipelineMode::Barrier;
    PapOptions overlap_opt = barrier_opt;
    overlap_opt.pipeline = PipelineMode::Overlap;
    const PapResult a = runPap(nfa, input, board, barrier_opt);
    const PapResult b = runPap(nfa, input, board, overlap_opt);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(b.pipelineMode, "overlap");
    expectSameRun(a, b);
}

TEST(EngineDiffLarge, CheckpointResumeIsByteIdenticalAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(93);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    const PapResult whole = runPap(nfa, input, board, PapOptions{});
    ASSERT_TRUE(whole.status.ok());

    const std::string path = uniqueTempPath("engine_diff_16k") + ".ckpt";
    exec::removeCheckpoint(path);
    PapOptions opt;
    opt.checkpointPath = path;
    opt.stopAfterSegment = 1;
    const PapResult dead = runPap(nfa, input, board, opt);
    EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);
    // Resume from the checkpoint and run to completion.
    opt.stopAfterSegment = -1;
    const PapResult resumed = runPap(nfa, input, board, opt);
    exec::removeCheckpoint(path);
    ASSERT_TRUE(resumed.status.ok());
    EXPECT_TRUE(resumed.resumedFromCheckpoint);
    EXPECT_TRUE(whole.verified);
    EXPECT_TRUE(resumed.verified);
    expectSameRun(whole, resumed);
}

// --- Host probe -------------------------------------------------------

TEST(SimdSelect, SimdLevelNames)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
}

} // namespace
} // namespace pap
