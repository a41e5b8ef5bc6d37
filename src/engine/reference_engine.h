/**
 * @file
 * Deliberately slow, obviously correct implementation of the ANML NFA
 * semantics, used as the oracle in differential tests. The enabled set
 * is kept as a std::set and every rule of Section 2.1 is written out
 * literally.
 */

#ifndef PAP_ENG_REFERENCE_ENGINE_H
#define PAP_ENG_REFERENCE_ENGINE_H

#include <set>
#include <vector>

#include "engine/report.h"
#include "engine/trace.h"
#include "nfa/nfa.h"

namespace pap {

/** Result of a reference run. */
struct ReferenceResult
{
    /** All report events, sorted and deduplicated. */
    std::vector<ReportEvent> reports;
    /**
     * Enabled set after every symbol (index i = after input[i]),
     * including spontaneously enabled AllInput starts.
     */
    std::vector<std::set<StateId>> enabledAfter;
};

/**
 * Run @p nfa over @p input from the designated start configuration.
 * @param record_sets when false, enabledAfter is left empty (cheaper).
 */
ReferenceResult referenceRun(const Nfa &nfa,
                             const std::vector<Symbol> &input,
                             bool record_sets = false);

} // namespace pap

#endif // PAP_ENG_REFERENCE_ENGINE_H
