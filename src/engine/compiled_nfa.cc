#include "engine/compiled_nfa.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace pap {

CompiledNfa::CompiledNfa(const Nfa &source_nfa) : nfa(source_nfa)
{
    PAP_ASSERT(nfa.finalized(), "CompiledNfa from unfinalized NFA");
    const std::size_t n = nfa.size();
    labels.resize(n);
    reportCodes.assign(n, kNoReport);
    allInputStart.assign(n, false);
    rowOffset.assign(n + 1, 0);

    std::size_t total_edges = 0;
    for (StateId q = 0; q < n; ++q)
        total_edges += nfa[q].succ.size();
    targets.reserve(total_edges);

    for (StateId q = 0; q < n; ++q) {
        const auto &s = nfa[q];
        labels[q] = s.label;
        if (s.reporting) {
            PAP_ASSERT(s.reportCode != kNoReport,
                       "report code ", s.reportCode, " is reserved");
            reportCodes[q] = s.reportCode;
        }
        allInputStart[q] = (s.start == StartType::AllInput);
        if (s.start == StartType::StartOfData)
            startOfDataStates.push_back(q);
        rowOffset[q] = static_cast<std::uint32_t>(targets.size());
        targets.insert(targets.end(), s.succ.begin(), s.succ.end());
    }
    rowOffset[n] = static_cast<std::uint32_t>(targets.size());

    // Per-symbol AllInput start activity. Successors that are
    // themselves AllInput starts are dropped: when start machinery is
    // live they are re-enabled every cycle anyway, and keeping them
    // out of the sparse active list avoids double reporting.
    for (StateId q = 0; q < n; ++q) {
        const auto &s = nfa[q];
        if (s.start != StartType::AllInput)
            continue;
        for (int sym = 0; sym < kAlphabetSize; ++sym) {
            if (!s.label.test(static_cast<Symbol>(sym)))
                continue;
            ++startMatches[sym];
            if (s.reporting)
                startReportsBySymbol[sym].push_back(
                    StartReport{q, s.reportCode});
            for (const StateId t : s.succ)
                if (!(nfa[t].start == StartType::AllInput))
                    startNext[sym].push_back(t);
        }
    }
    for (auto &v : startNext) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    // Self-loop states, grouped by label, and the states they hold.
    selfLoopStates.assign(n, false);
    holdableStates.assign(n, false);
    feedsHoldableStates.assign(n, false);
    std::map<CharClass, std::uint32_t> group_of_label;
    for (StateId q = 0; q < n; ++q) {
        const auto &succ = nfa[q].succ;
        if (std::find(succ.begin(), succ.end(), q) == succ.end())
            continue;
        const auto [it, fresh] = group_of_label.emplace(
            labels[q], static_cast<std::uint32_t>(loopLabels.size()));
        if (fresh)
            loopLabels.push_back(labels[q]);
        selfLoopStates[q] = true;
        loopStateIds.push_back(q);
        loopStateGroups.push_back(it->second);
        for (const StateId t : succ)
            holdableStates[t] = true;
    }
    for (StateId q = 0; q < n; ++q)
        for (const StateId t : nfa[q].succ)
            if (holdableStates[t])
                feedsHoldableStates[q] = true;
    for (int sym = 0; sym < kAlphabetSize; ++sym)
        for (const StateId t : startNext[sym])
            if (holdableStates[t])
                startHoldSymbols.set(static_cast<Symbol>(sym));
}

std::uint32_t
CompiledNfa::loopGroup(StateId q) const
{
    const auto it =
        std::lower_bound(loopStateIds.begin(), loopStateIds.end(), q);
    PAP_ASSERT(it != loopStateIds.end() && *it == q, "state ", q,
               " has no self-loop");
    return loopStateGroups[static_cast<std::size_t>(
        it - loopStateIds.begin())];
}

} // namespace pap
