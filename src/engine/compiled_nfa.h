/**
 * @file
 * Execution-oriented flattening of an Nfa: CSR successor arrays,
 * contiguous labels, and per-symbol pre-computation of the activity
 * contributed by AllInput start states. Immutable; shared by any
 * number of engine instances (one per flow).
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

    static constexpr ReportCode kNoReport =
        static_cast<ReportCode>(-1);
};

} // namespace pap

#endif // PAP_ENG_COMPILED_NFA_H
