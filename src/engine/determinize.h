/**
 * @file
 * Subset construction (NFA -> DFA state counting). Section 2.1 of the
 * paper argues that converting large NFAs to DFAs cannot rescue
 * von-Neumann architectures because the state count explodes
 * exponentially; this module measures that blowup directly. The
 * construction is capped so pathological inputs terminate.
 */

#ifndef PAP_ENG_DETERMINIZE_H
#define PAP_ENG_DETERMINIZE_H

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "nfa/nfa.h"

namespace pap {

/** Outcome of a (possibly capped) subset construction. */
struct DeterminizeResult
{
    /** NFA states (for the blowup ratio). */
    std::uint64_t nfaStates = 0;
    /** Distinct DFA states discovered (= cap when capped). */
    std::uint64_t dfaStates = 0;
    /** True if the cap stopped the exploration. */
    bool capped = false;
    /** DFA transitions explored. */
    std::uint64_t transitions = 0;
};

/**
 * Count the reachable DFA states of @p nfa by breadth-first subset
 * construction over the enabled-set dynamics (AllInput starts are
 * implicitly re-enabled every cycle, exactly as in execution).
 *
 * @param max_states stop after discovering this many DFA states.
 * @param alphabet   symbols to close over; empty = all symbols that
 *                   can occur in any label (others self-loop to the
 *                   same successor as "no match" and add no states
 *                   beyond the dead/start configuration).
 */
DeterminizeResult subsetConstruction(
    const Nfa &nfa, std::uint64_t max_states,
    const std::vector<Symbol> &alphabet = {});

} // namespace pap

#endif // PAP_ENG_DETERMINIZE_H
