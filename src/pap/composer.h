/**
 * @file
 * Host-side composition of input partitions (Section 3.4): once the
 * previous segment's true final active set T is known, an enumeration
 * path is true iff all of its candidate start states are in T (a
 * matched parent activates all of its successors together, so true
 * paths cover T exactly). Reports are filtered per (flow, connected
 * component) — the flow id comes from the output-buffer entry and the
 * component mask identifies the owning path — then deduplicated, and
 * the segment's own true final active set is assembled for the next
 * segment in the chain.
 */

#ifndef PAP_PAP_COMPOSER_H
#define PAP_PAP_COMPOSER_H

#include <cstdint>
#include <vector>

#include "engine/compiled_nfa.h"
#include "nfa/analysis.h"
#include "pap/exec/checkpoint.h"
#include "pap/flow_plan.h"
#include "pap/segment_sim.h"

namespace pap {

/** Composition result for one segment. */
struct SegmentTruth
{
    /** Truth of each enumeration path (indexed like FlowPlan::paths). */
    std::vector<std::uint8_t> pathTrue;
    /** Per enumeration flow: true iff it carries at least one true path. */
    std::vector<std::uint8_t> flowTrue;
    /** True final active set: the T of the next segment (sorted). */
    std::vector<StateId> finalActive;
    /** True report events (filtered, deduplicated, absolute offsets). */
    std::vector<ReportEvent> trueReports;
    /** All output-buffer entries the segment produced (incl. false). */
    std::uint64_t totalEntries = 0;
    /** Entries filtered out as false-path artifacts. */
    std::uint64_t falseEntries = 0;
    /** Enumeration flows still live when the segment finished. */
    std::uint32_t aliveEnumFlowsAtEnd = 0;
};

/** Compose the first (golden) segment: everything is true. */
SegmentTruth composeGolden(const SegmentRun &run);

/**
 * Compose a later segment given the previous segment's true final
 * active set @p prev_true (sorted). @p cnfa is needed to treat
 * AllInput start states as implicitly always present in T.
 */
SegmentTruth composeEnum(const CompiledNfa &cnfa, const Components &comps,
                         const FlowPlan &plan, const SegmentRun &run,
                         const std::vector<StateId> &prev_true);

/**
 * The record every driver keeps of a composed segment: its timing-model
 * input (flows, entries, batches) and its flow-outcome census, in the
 * form a checkpoint stores. @p has_enum_flows says whether the segment
 * ran enumeration flows the timeline must decode; @p recovered marks a
 * segment the oracle computed; @p batches is the SVC batch count and
 * @p batch_reload_cycles the state-vector upload cost between batches.
 * The live-cache fields (svcEvict, svcCapacity, svcPolicy) are left
 * for the caller, which knows the run's policy.
 */
exec::SegmentCheckpoint recordSegment(const SegmentRun &run,
                                      const SegmentTruth &truth,
                                      bool has_enum_flows, bool recovered,
                                      std::uint32_t batches,
                                      Cycles batch_reload_cycles);

} // namespace pap

#endif // PAP_PAP_COMPOSER_H
