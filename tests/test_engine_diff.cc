/**
 * @file
 * Differential tests of the sparse FunctionalEngine against the
 * reference interpreter (referenceRun): step by step on random
 * automata in start mode and in enumeration mode with random seeds,
 * on automata dense in self-loop states (the persistent-set path),
 * across reset, overwriteActive and mid-run snapshots, and on a
 * 16K-state automaton. Active sets, sorted reports and the exact
 * matches/enables/symbols counters must all agree. Whole PAP runs
 * over the 16K automaton must be byte-identical (reports, cycle
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
 * Step @p engine over @p t, comparing its active set and its matches,
 * enables and symbols counters (since the call) with the reference run
 * of @p ref_nfa after every @p every-th symbol, and its sorted reports
 * (offsets relative to the engine's cursor at the call) at the end.
 * Reports the engine holds at the call are dropped.
 */
void
expectMatchesReference(FunctionalEngine &engine, const Nfa &ref_nfa,
                       const InputTrace &t, bool starts,
                       std::uint64_t every, const std::string &what)
{
    const ReferenceResult ref =
        referenceRun(ref_nfa, t.symbols(), /*record_sets=*/true);
    const std::uint64_t base = engine.cursor();
    const EngineCounters before = engine.counters();
    engine.takeReports();
    // Matches: enabled states whose label holds the symbol (AllInput
    // starts included — the engine counts them through its start
    // fold). Enables: the active set after the step.
    std::set<StateId> enabled(ref_nfa.startStates().begin(),
                              ref_nfa.startStates().end());
    std::uint64_t matches = 0;
    std::uint64_t enables = 0;
    for (std::uint64_t i = 0; i < t.size(); ++i) {
        engine.step(t[i]);
        for (const StateId q : enabled)
            matches += ref_nfa[q].label.test(t[i]);
        enabled = ref.enabledAfter[i];
        const auto expect = expectedActive(ref_nfa, enabled, starts);
        enables += expect.size();
        if (i % every != 0 && i + 1 != t.size())
            continue;
        ASSERT_EQ(engine.snapshot(), expect) << what << " at " << i;
        EXPECT_EQ(engine.activeCount(), expect.size()) << what;
        EXPECT_EQ(engine.dead(), expect.empty()) << what;
        const EngineCounters &now = engine.counters();
        ASSERT_EQ(now.matches - before.matches, matches)
            << what << " at " << i;
        ASSERT_EQ(now.enables - before.enables, enables)
            << what << " at " << i;
        ASSERT_EQ(now.symbols - before.symbols, i + 1) << what;
    }
    EXPECT_EQ(engine.cursor(), base + t.size()) << what;
    std::vector<ReportEvent> got = engine.takeReports();
    for (ReportEvent &e : got)
        e.offset -= base;
    EXPECT_EQ(sortedReports(got), ref.reports) << what;
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

// --- Self-loop-rich automata: the persistent-set step ----------------

/**
 * A random automaton dense in self-loop states: Sigma minus @p kill
 * gap states, full-Sigma ".*" states and narrow self-loops, chained
 * into each other (g1 -> g2) and into the literal states they hold
 * enabled. Any state may report or be a start of either kind, so
 * reporting and AllInput self-loops occur too.
 */
Nfa
loopRichNfa(Rng &rng, Symbol kill)
{
    Nfa nfa("loops");
    const std::string letters = "abcdefgh";
    const auto letter = [&] {
        return static_cast<Symbol>(letters[rng.nextBelow(letters.size())]);
    };
    const auto n = static_cast<StateId>(6 + rng.nextBelow(40));
    std::vector<bool> loops(n);
    for (StateId q = 0; q < n; ++q) {
        CharClass label;
        switch (rng.nextBelow(6)) {
          case 0:
          case 1: // gap
            label = CharClass::all();
            label.reset(kill);
            loops[q] = rng.nextBool(0.9);
            break;
          case 2: // .*
            label = CharClass::all();
            loops[q] = rng.nextBool(0.9);
            break;
          case 3: // narrow, e.g. [ab]*
            label.set(letter());
            label.set(letter());
            loops[q] = rng.nextBool(0.6);
            break;
          default: // literal, sometimes the kill symbol itself
            label.set(rng.nextBool(0.2) ? kill : letter());
            loops[q] = rng.nextBool(0.1);
            break;
        }
        const std::uint64_t start = rng.nextBelow(8);
        const bool reporting = rng.nextBool(0.25);
        nfa.addState(label,
                     start == 0   ? StartType::AllInput
                     : start == 1 ? StartType::StartOfData
                                  : StartType::None,
                     reporting, reporting ? q : 0);
    }
    for (StateId q = 0; q < n; ++q) {
        if (loops[q])
            nfa.addEdge(q, q);
        const std::uint64_t fanout = 1 + rng.nextBelow(3);
        for (std::uint64_t e = 0; e < fanout; ++e)
            nfa.addEdge(q, static_cast<StateId>(rng.nextBelow(n)));
    }
    nfa.finalize();
    return nfa;
}

/** A trace over a..h in which @p kill makes up about @p density. */
InputTrace
killDenseTrace(Rng &rng, std::size_t len, Symbol kill, double density)
{
    std::vector<Symbol> data(len);
    for (auto &s : data)
        s = rng.nextBool(density)
                ? kill
                : static_cast<Symbol>('a' + rng.nextBelow(8));
    return InputTrace(std::move(data));
}

/** A random subset of @p nfa's states, each kept with @p p. */
std::vector<StateId>
randomStates(Rng &rng, const Nfa &nfa, double p)
{
    std::vector<StateId> out;
    for (StateId q = 0; q < nfa.size(); ++q)
        if (rng.nextBool(p))
            out.push_back(q);
    return out;
}

TEST(EngineDiffLoops, FuzzMatchesReferenceStepByStep)
{
    // Kill symbols: a separator outside the literal alphabet and a
    // letter that literal states match too; kill densities from rare
    // to most symbols.
    Rng rng(4242);
    for (int iter = 0; iter < 120; ++iter) {
        const Symbol kill = iter % 2 ? '\n' : 'c';
        const Nfa nfa = loopRichNfa(rng, kill);
        const CompiledNfa cnfa(nfa);
        ASSERT_GT(cnfa.loopStates(), 0u);
        const double density = std::vector<double>{0.02, 0.2, 0.6}[iter % 3];
        const InputTrace t =
            killDenseTrace(rng, 128 + rng.nextBelow(384), kill, density);
        for (const bool starts : {true, false}) {
            std::vector<StateId> seed = cnfa.initialActive();
            if (!starts)
                seed = randomStates(rng, nfa, 0.3);
            FunctionalEngine engine(cnfa, starts);
            engine.reset(seed, 1000);
            expectMatchesReference(
                engine, starts ? nfa : reseeded(nfa, seed, false), t,
                starts, 1,
                "loops iter " + std::to_string(iter) + " starts " +
                    std::to_string(starts));
        }
    }
}

TEST(EngineDiffLoops, MidRunResetOverwriteAndSnapshots)
{
    // Mid-run: an engine reset() to another's snapshot has the same
    // set, hash and future; after overwriteActive() an engine tracks
    // the reference seeded with the survivors; reset() wipes the
    // persistent set.
    Rng rng(2424);
    for (int iter = 0; iter < 60; ++iter) {
        const Symbol kill = iter % 2 ? 'a' : '\r';
        const Nfa nfa = loopRichNfa(rng, kill);
        const CompiledNfa cnfa(nfa);
        const InputTrace t = killDenseTrace(rng, 600, kill, 0.1);
        const std::uint64_t cut = 50 + rng.nextBelow(250);
        for (const bool starts : {true, false}) {
            const std::string what = "iter " + std::to_string(iter) +
                                     " starts " + std::to_string(starts);
            const std::vector<StateId> seed =
                starts ? cnfa.initialActive() : randomStates(rng, nfa, 0.4);
            EngineScratch shared(cnfa.size());
            FunctionalEngine a(cnfa, starts, &shared);
            a.reset(seed);
            a.run(t.begin(), cut);

            FunctionalEngine b(cnfa, starts, &shared);
            b.reset(a.snapshot(), cut);
            EXPECT_EQ(b.snapshot(), a.snapshot()) << what;
            EXPECT_EQ(b.stateHash(), a.stateHash()) << what;
            EXPECT_TRUE(b.sameActiveSet(a)) << what;
            EXPECT_TRUE(a.sameActiveSet(b)) << what;
            a.takeReports();
            const std::uint64_t a_matches = a.counters().matches;
            for (std::uint64_t i = cut; i < 2 * cut; ++i) {
                a.step(t[i]);
                b.step(t[i]);
                ASSERT_TRUE(a.sameActiveSet(b)) << what << " at " << i;
                ASSERT_EQ(a.stateHash(), b.stateHash()) << what;
                ASSERT_EQ(a.activeCount(), b.activeCount()) << what;
            }
            EXPECT_EQ(a.counters().matches - a_matches,
                      b.counters().matches) << what;
            EXPECT_EQ(sortedReports(a.takeReports()),
                      sortedReports(b.takeReports())) << what;

            // Overwrite mid-run, then follow the reference.
            const std::vector<StateId> vector = randomStates(rng, nfa, 0.5);
            a.overwriteActive(vector);
            std::vector<StateId> kept;
            for (const StateId q : vector)
                if (!starts || !cnfa.isAllInputStart(q))
                    kept.push_back(q);
            EXPECT_EQ(a.snapshot(), kept) << what;
            const InputTrace rest(std::vector<Symbol>(
                t.begin() + 2 * cut, t.begin() + t.size()));
            expectMatchesReference(a, reseeded(nfa, kept, starts), rest,
                                   starts, 1, what + " overwrite");

            // reset() drops every persistent state.
            a.reset({}, 0);
            EXPECT_TRUE(a.dead()) << what;
            EXPECT_EQ(a.activeCount(), 0u) << what;
            EXPECT_EQ(a.counters().matches, 0u) << what;
            expectMatchesReference(a, reseeded(nfa, {}, starts), t, starts,
                                   5, what + " after reset");
        }
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
