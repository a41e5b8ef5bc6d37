/**
 * @file
 * Execution-oriented flattening of an Nfa: CSR successor arrays,
 * contiguous labels, per-symbol pre-computation of the activity
 * contributed by AllInput start states, and the self-loop states
 * grouped by label (the kill lists of a flow's always-on states).
 * Immutable; shared by any number of engine instances (one per flow).
 */

#ifndef PAP_ENG_COMPILED_NFA_H
#define PAP_ENG_COMPILED_NFA_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/charclass.h"
#include "common/types.h"
#include "nfa/nfa.h"

namespace pap {

/** A start-state match precomputed for one symbol. */
struct StartReport
{
    StateId state;
    ReportCode code;
};

/** Immutable compiled form of a homogeneous NFA. */
class CompiledNfa
{
  public:
    /** Flatten @p nfa (which must be finalized). Keeps a reference. */
    explicit CompiledNfa(const Nfa &nfa);

    /** Number of states. */
    std::size_t size() const { return labels.size(); }

    /** The source automaton. */
    const Nfa &source() const { return nfa; }

    /** Label of state @p q. */
    const CharClass &label(StateId q) const { return labels[q]; }

    /** True if @p q reports on match. */
    bool reporting(StateId q) const { return reportCodes[q] != kNoReport; }

    /** Report code of @p q (only meaningful if reporting(q)). */
    ReportCode reportCode(StateId q) const { return reportCodes[q]; }

    /** True if @p q is an AllInput start (re-enabled every cycle). */
    bool isAllInputStart(StateId q) const { return allInputStart[q]; }

    /** Successors of @p q as a contiguous span. */
    std::pair<const StateId *, const StateId *>
    successors(StateId q) const
    {
        return {targets.data() + rowOffset[q],
                targets.data() + rowOffset[q + 1]};
    }

    /**
     * States enabled for the next cycle because an AllInput start
     * matched symbol @p s.
     */
    const std::vector<StateId> &startEnables(Symbol s) const
    {
        return startNext[s];
    }

    /** Reports emitted by AllInput starts when symbol @p s arrives. */
    const std::vector<StartReport> &startReports(Symbol s) const
    {
        return startReportsBySymbol[s];
    }

    /** AllInput starts whose label matches @p s (transition count). */
    std::uint32_t startMatchCount(Symbol s) const
    {
        return startMatches[s];
    }

    /** True if @p q has a self-edge. */
    bool selfLoop(StateId q) const { return selfLoopStates[q]; }

    /**
     * Self-loop group of @p q, which must have a self-edge. Self-loop
     * states with equal labels share a group, so one label test
     * decides for all of them whether a symbol keeps them alive: the
     * kill list of symbol s is every group whose label lacks s (for
     * SPM's gap states, only '\r').
     */
    std::uint32_t loopGroup(StateId q) const;

    /** Label shared by the states of self-loop group @p g. */
    const CharClass &loopLabel(std::uint32_t g) const
    {
        return loopLabels[g];
    }

    /** Number of states with a self-loop. */
    std::size_t loopStates() const { return loopStateIds.size(); }

    /**
     * True if @p q can ever be persistent or held: it has a self-loop
     * or is the successor of a state that does. Other states never
     * need a hold-index lookup.
     */
    bool holdable(StateId q) const { return holdableStates[q]; }

    /** True if some state of startEnables(@p s) is holdable(). */
    bool startFeedsHoldable(Symbol s) const
    {
        return startHoldSymbols.test(s);
    }

    /**
     * True if some successor of @p q is holdable() — in particular if
     * q has a self-loop. A step defers such a state's successors until
     * its hold index is up to date; any other matched state enables
     * its successors at once, with no lookup.
     */
    bool feedsHoldable(StateId q) const { return feedsHoldableStates[q]; }

    /** Initially active states: StartOfData starts. */
    const std::vector<StateId> &initialActive() const
    {
        return startOfDataStates;
    }

  private:
    const Nfa &nfa;
    std::vector<CharClass> labels;
    std::vector<ReportCode> reportCodes;
    std::vector<bool> allInputStart;
    std::vector<std::uint32_t> rowOffset;
    std::vector<StateId> targets;
    std::array<std::vector<StateId>, kAlphabetSize> startNext;
    std::array<std::vector<StartReport>, kAlphabetSize>
        startReportsBySymbol;
    std::array<std::uint32_t, kAlphabetSize> startMatches{};
    std::vector<StateId> startOfDataStates;
    // Bit-packed flags stay cache-resident: a step tests
    // feedsHoldable() for every matched state. The group of each
    // self-loop state sits beside its id in ascending-id order.
    std::vector<bool> selfLoopStates;
    std::vector<StateId> loopStateIds;
    std::vector<std::uint32_t> loopStateGroups;
    std::vector<bool> holdableStates;
    std::vector<bool> feedsHoldableStates;
    std::vector<CharClass> loopLabels;
    CharClass startHoldSymbols;

    static constexpr ReportCode kNoReport =
        static_cast<ReportCode>(-1);
};

} // namespace pap

#endif // PAP_ENG_COMPILED_NFA_H
