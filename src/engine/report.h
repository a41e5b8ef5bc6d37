/**
 * @file
 * Report (output) events. On the AP a reporting STE that matches
 * writes a report code and the byte offset of the triggering symbol to
 * the output event buffer (Section 2.1); this is the software mirror.
 */

#ifndef PAP_ENG_REPORT_H
#define PAP_ENG_REPORT_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace pap {

/** One output event. */
struct ReportEvent
{
    /** Byte offset in the input stream of the symbol causing it. */
    std::uint64_t offset;
    /** The reporting state (needed to attribute the event to a path). */
    StateId state;
    /** User-visible report code. */
    ReportCode code;

    friend auto operator<=>(const ReportEvent &,
                            const ReportEvent &) = default;
};

/** Sort by (offset, state, code) and drop duplicates in place. */
void sortAndDedupReports(std::vector<ReportEvent> &reports);

} // namespace pap

#endif // PAP_ENG_REPORT_H
