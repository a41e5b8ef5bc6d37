/**
 * @file
 * Functional execution of one input segment's flows, time-division
 * multiplexed exactly as the PAP architecture does it (Section 3.2):
 * every flow advances one TDM quantum per step; deactivation checks
 * run at context switches (plus finer-grained checks before the first
 * TDM step completes, Section 3.3.4); convergence checks run every N
 * TDM steps and merge flows whose state vectors are bitwise equal
 * (Section 3.3.3).
 */

#ifndef PAP_PAP_SEGMENT_SIM_H
#define PAP_PAP_SEGMENT_SIM_H

#include <cstdint>
#include <vector>

#include "ap/ap_config.h"
#include "engine/functional_engine.h"
#include "pap/exec/cancellation.h"
#include "pap/flow_plan.h"
#include "pap/options.h"

namespace pap {
namespace obs {
class AttribLedger;
} // namespace obs

/** Role of a flow within a segment. */
enum class FlowKind : std::uint8_t
{
    Golden, ///< the true path of the first segment
    Asg,    ///< the always-true Active State Group flow
    Enum    ///< an enumeration flow
};

/** Why a flow stopped processing symbols. */
enum class DeathCause : std::uint8_t
{
    RanToEnd,    ///< processed the whole segment
    Deactivated, ///< state vector became empty (Section 3.3.4)
    Converged    ///< merged into another flow (Section 3.3.3)
};

/** Everything recorded about one flow's execution of a segment. */
struct FlowRecord
{
    FlowId id = kInvalidFlow;
    FlowKind kind = FlowKind::Enum;
    /**
     * SVC batch the flow executed in (0 unless the segment's plan
     * overflowed the State Vector Cache and was run in batches).
     */
    std::uint32_t batch = 0;
    /** Paths carried by this flow (indices into the FlowPlan). */
    std::vector<std::uint32_t> pathIdx;
    /**
     * Local symbols processed before stopping, rounded up to the
     * check boundary where the stop was detected (what the timing
     * model charges).
     */
    std::uint64_t symbolsProcessed = 0;
    DeathCause cause = DeathCause::RanToEnd;
    /** Winner flow when cause == Converged. */
    FlowId mergedInto = kInvalidFlow;
    /** Local symbol index at which the merge happened. */
    std::uint64_t mergeSymbol = 0;
    /** Sorted active set at segment end (only when RanToEnd). */
    std::vector<StateId> finalSnapshot;
    /** Events this flow's engine emitted (absolute offsets). */
    std::vector<ReportEvent> reports;
    /** Engine counters (transitions for the energy analysis). */
    EngineCounters counters;
};

/** The outcome of simulating one segment. */
struct SegmentRun
{
    std::uint64_t segBegin = 0;
    std::uint64_t segLen = 0;
    std::vector<FlowRecord> flows;
    /** Index of the ASG flow in @c flows, or -1 if absent. */
    int asgIndex = -1;
};

/** Outcomes of a segment run's enumeration flows. */
struct FlowOutcomes
{
    std::uint32_t deactivated = 0;
    std::uint32_t converged = 0;
    std::uint32_t ranToEnd = 0;
};

/** Count how @p run's enumeration flows stopped. */
FlowOutcomes countFlowOutcomes(const SegmentRun &run);

class FaultInjector;

/**
 * Run a single golden flow with full start-state machinery over
 * @p cnfa: the first segment, seeded with the StartOfData states, or —
 * when @p start is non-null — the sequential continuation of the true
 * path from that active set (the oracle that recovers a segment whose
 * retries ran out, and the sequential baseline itself). @p injector,
 * when non-null, may drop or truncate the flow's report buffer.
 * @p cancel, when non-null, is polled cooperatively (the run is
 * chunked); a cancelled run returns early with a partial record the
 * caller must discard.
 */
SegmentRun runGoldenSegment(const CompiledNfa &cnfa,
                            const Symbol *data,
                            std::uint64_t seg_begin, std::uint64_t seg_len,
                            EngineScratch &scratch,
                            FaultInjector *injector = nullptr,
                            const exec::CancellationToken *cancel =
                                nullptr,
                            const std::vector<StateId> *start = nullptr);

/**
 * Run a later segment: the ASG flow (if @p asg_seed is non-empty) plus
 * one enumeration flow per FlowSpec of @p plan, multiplexed per
 * @p options. Faults from options.faultInjector are applied at
 * context-switch boundaries and report drains.
 *
 * @p asg_flow_id names the ASG flow's SVC entry; pass kInvalidFlow to
 * use plan.flows.size() (correct when @p plan is a whole plan rather
 * than one SVC batch of a larger one).
 *
 * @p cancel, when non-null, is polled once per TDM round; a cancelled
 * run returns early with a partial record the caller must discard.
 */
SegmentRun runEnumSegment(const CompiledNfa &cnfa,
                          const FlowPlan &plan,
                          const std::vector<StateId> &asg_seed,
                          const Symbol *data, std::uint64_t seg_begin,
                          std::uint64_t seg_len,
                          const PapOptions &options,
                          EngineScratch &scratch,
                          FlowId asg_flow_id = kInvalidFlow,
                          const exec::CancellationToken *cancel =
                              nullptr);

/** A segment's run and the SVC batches it executed in. */
struct SegmentExecution
{
    SegmentRun run;
    /** SVC batches the plan ran in (1 unless it overflowed the cache). */
    std::uint32_t batches = 1;
};

/**
 * The modeled State Vector Cache capacity in flow contexts:
 * options.svcCapacity when set, else the device's.
 */
std::uint32_t resolveSvcCapacity(const PapOptions &options,
                                 const ApConfig &config);

/**
 * Enumeration flows one SVC batch holds: @p svc_capacity less the
 * entry the ASG flow occupies when @p has_asg, and at least 1.
 */
std::uint32_t svcBatchCapacity(std::uint32_t svc_capacity, bool has_asg);

/**
 * Execute one segment the way the device does (Section 3.2): the
 * golden flow when @p plan is null, otherwise the ASG flow (@p asg)
 * plus the plan's enumeration flows under TDM. A plan larger than one
 * SVC batch (svcBatchCapacity of @p svc_capacity) runs in cache-sized
 * batches back to back — flow ids stay global, so the merged run
 * composes exactly like an unbatched one, and the ASG flow runs once,
 * in batch 0. OverflowPolicy::Evict runs the whole plan at once and
 * leaves residency churn to the timeline's live cache. Batches past
 * the first are charged to @p attrib's aux bucket "workers.svc_batch"
 * when a ledger is given. @p cancel is polled as in runGoldenSegment
 * and runEnumSegment; a cancelled run is partial.
 */
SegmentExecution executeSegment(const CompiledNfa &cnfa,
                                const FlowPlan *plan,
                                const std::vector<StateId> &asg,
                                const Symbol *data,
                                std::uint64_t seg_begin,
                                std::uint64_t seg_len,
                                const PapOptions &options,
                                std::uint32_t svc_capacity,
                                const exec::CancellationToken *cancel,
                                obs::AttribLedger *attrib = nullptr);

} // namespace pap

#endif // PAP_PAP_SEGMENT_SIM_H
