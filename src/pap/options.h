/**
 * @file
 * Tunables of the Parallel Automata Processor framework. Defaults
 * follow the paper: 3-cycle flow switches, convergence checks every 10
 * TDM steps, extra deactivation checks before the first TDM step
 * completes, and host-side costs calibrated to Section 4.2 / Fig. 11.
 */

#ifndef PAP_PAP_OPTIONS_H
#define PAP_PAP_OPTIONS_H

#include <cstdint>
#include <string>

#include "ap/svc_policy.h"
#include "common/types.h"

namespace pap {

class FaultInjector;

/**
 * Execution engine of a run. Every flow runs on the sparse
 * FunctionalEngine; the benchmark harness names this type and its one
 * value.
 */
enum class EngineKind : std::uint8_t
{
    Sparse,
};

/**
 * How host-side composition is scheduled against segment execution.
 * Both modes produce byte-identical reports and per-figure metrics
 * for any thread count; only wall-clock differs.
 */
enum class PipelineMode : std::uint8_t
{
    /**
     * Run every segment to completion, then compose (the historical
     * behavior): host Tcpu is paid strictly after execution.
     */
    Barrier,
    /**
     * Pipelined dataflow: the composer decodes segment i's true/false
     * paths and publishes the FIV while segments > i still execute,
     * hiding the modeled Tcpu overlap in real wall-clock.
     */
    Overlap,
    /** Consult PAP_PIPELINE (barrier|overlap|auto), else Barrier. */
    Auto,
};

/**
 * What to do when a segment's flow plan exceeds the State Vector
 * Cache (512 entries per device on the D480).
 */
enum class OverflowPolicy : std::uint8_t
{
    /**
     * Execute the segment's flows in SVC-sized batches, paying a
     * modeled state-vector re-upload between batches (the default:
     * slower, never wrong).
     */
    Batch,
    /** Give up on parallelism: return the golden sequential result. */
    SequentialFallback,
    /** Fail the run with a CapacityExceeded status. */
    Fail,
    /**
     * Run the whole plan through a live cache: every flow is
     * scheduled, the SVC evicts per the configured replacement policy
     * (svcPolicy), and each restored context pays the 1668-cycle
     * state-vector re-upload in the timeline. Reports are byte-
     * identical to Batch; only timing and svc.* counters differ.
     */
    Evict,
};

/** Knobs for one PAP run. Every optimization can be ablated. */
struct PapOptions
{
    /** Execution engine (always sparse; the benchmark harness sets
     *  this field). */
    EngineKind engine = EngineKind::Sparse;

    /**
     * Symbols each flow processes before a context switch (the TDM
     * quantum k of Section 3.2). 125 symbols puts the worst-case
     * switching overhead at 3/(125+3) = 2.3%, matching the paper's
     * reported worst case (ClamAV, Fig. 10).
     */
    std::uint32_t tdmQuantum = 125;

    /** Convergence checks run every this many TDM steps (Sec. 3.3.3). */
    std::uint32_t convergenceCheckPeriod = 10;

    /**
     * Granularity of the extra deactivation checks performed before
     * the first TDM step completes (Section 3.3.4).
     */
    std::uint32_t earlyCheckGranularity = 16;

    /** Merge enumeration paths of disjoint connected components. */
    bool enableCcMerging = true;

    /** One enumeration path per parent state instead of per range state. */
    bool enableParentMerging = true;

    /**
     * Exclude Active State Group states from enumeration paths (their
     * activity runs in the dedicated always-true ASG flow).
     */
    bool enableAsgMerging = true;

    /** Dynamic convergence checks between flows. */
    bool enableConvergenceChecks = true;

    /** Deactivation of empty flows (affects the timing model). */
    bool enableDeactivationChecks = true;

    /** Propagate Flow Invalidation Vectors between segments. */
    bool enableFiv = true;

    /** Flow context-switch cost (3 on D480; 6/12 for sensitivity). */
    Cycles contextSwitchCycles = 3;

    /**
     * Host decode: fixed cost of interpreting an uploaded vector
     * ("a few tens of symbol cycles", Section 3.4). Uploads of
     * different segments' vectors proceed in parallel (separate
     * devices); only this decode step chains serially.
     */
    Cycles decodeBaseCycles = 32;

    /** Host decode: additional cost per live flow. */
    Cycles decodePerFlowCycles = 2;

    /**
     * Host cost per output-buffer entry drained, in AP symbol cycles.
     * The Xeon host filters an entry in a few CPU cycles while the AP
     * streams at 7.5 ns/symbol, so one entry costs well under one
     * symbol cycle (output reporting is ~1% of execution, Sec. 5.3).
     */
    double reportCostCyclesPerEvent = 0.05;

    /**
     * Cap parallel time at sequential time (the golden-execution
     * guarantee of Section 5.1).
     */
    bool applyGoldenCap = true;

    /** Cross-check composed reports against a sequential run. */
    bool verifyAgainstSequential = true;

    /**
     * Hard ceiling on enumeration flows per segment, far above any
     * realistic SVC pressure. Runs needing more are treated per
     * @c overflowPolicy: Fail returns CapacityExceeded, everything
     * else falls back to the golden sequential result (batching a
     * plan this degenerate would be slower than sequential).
     */
    std::uint32_t maxFlowsPerSegment = 1u << 20;

    /**
     * Reaction to a segment flow plan that exceeds the State Vector
     * Cache capacity of the device (Section 3.2).
     */
    OverflowPolicy overflowPolicy = OverflowPolicy::Batch;

    /**
     * Replacement policy of the State Vector Cache under
     * OverflowPolicy::Evict (ap/svc_policy.h): lru, fifo, or
     * cost-aware. Timing-only — reports and per-figure metrics are
     * byte-identical across policies.
     */
    SvcPolicyKind svcPolicy = SvcPolicyKind::Lru;

    /**
     * Override of the modeled SVC capacity, in flow contexts
     * (0 = the device's svcEntriesPerDevice, 512 on the D480).
     * Affects both the Batch batch size and the Evict live cache —
     * the knob the capacity-sensitivity sweep turns.
     */
    std::uint32_t svcCapacity = 0;

    /**
     * Optional deterministic fault-injection harness (not owned).
     * When set, the runner and segment simulator consult it at
     * context switches, report drains, and FIV downloads.
     */
    FaultInjector *faultInjector = nullptr;

    /**
     * Routing-constraint hint: minimum half-cores one FSM copy
     * occupies (densely connected automata are distributed across
     * multiple dies by the AP compiler, Section 4.1).
     */
    std::uint32_t routingMinHalfCores = 1;

    // --- Hardened host-parallel execution (pap/exec) ----------------

    /**
     * Host threads running per-segment simulation (0 = one per
     * hardware thread). Reports and per-figure metrics are
     * byte-identical for every thread count; only wall-clock changes.
     */
    std::uint32_t threads = 1;

    /**
     * Scheduling of composition against execution: barrier composes
     * after all segments finish, overlap composes segment i while
     * later segments still run. Auto consults PAP_PIPELINE, then
     * defaults to barrier.
     */
    PipelineMode pipeline = PipelineMode::Auto;

    /**
     * Bounded handoff window of the overlap pipeline: how many
     * segments may be in flight ahead of the composition frontier
     * (0 = auto: max(4, 2 * threads)). Ignored in barrier mode.
     */
    std::uint32_t pipelineWindow = 0;

    /**
     * Device-latency emulation: when > 0, each segment task occupies
     * at least `segment_length * this` nanoseconds of wall-clock
     * (sleeping out whatever the functional simulation left over),
     * emulating an AP device streaming at that rate while the host
     * thread waits on it; the composer likewise occupies each
     * segment's modeled Tcpu (upload + decode cycles, Fig. 11) at
     * the same rate, net of its real compose time. Results are
     * unaffected; only wall-clock changes. This is what makes the
     * overlap pipeline measurable on hosts whose simulation is
     * CPU-bound: with real hardware the composer's Tcpu hides behind
     * *device* time, not host compute (`bench/pipeline_overlap.cc`).
     */
    double emulateDeviceNsPerSymbol = 0.0;

    /**
     * Watchdog liveness window per segment attempt, in wall-clock
     * milliseconds: an attempt that makes no progress (no TDM round
     * or 4,096-symbol chunk finished) for this long is cancelled and
     * retried. A slow attempt that keeps advancing is never cancelled.
     * 0 means 5 s; negative disables the watchdog entirely.
     */
    double segmentDeadlineMs = 0.0;

    /** Extra attempts after a failed segment (0 disables retry). */
    std::uint32_t maxSegmentRetries = 2;

    /** First retry backoff in ms; doubles per retry, capped below. */
    std::uint32_t retryBackoffBaseMs = 1;
    std::uint32_t retryBackoffCapMs = 64;

    /**
     * Seeded per-(task, attempt) jitter on retry backoff, so workers
     * that fail together do not retry together (retry storms under
     * service load). Deterministic — derived from the fault seed and
     * the task index — and timing-only: reports and per-figure
     * metrics are byte-identical with it on or off.
     */
    bool retryBackoffJitter = true;

    /**
     * Crash-consistent checkpoint file. When non-empty the runner
     * serializes the composition frontier here after composing each
     * segment, resumes from a matching checkpoint at startup, and
     * removes the file on successful completion.
     */
    std::string checkpointPath;

    /**
     * Test hook simulating a killed run: when >= 0, the runner stops
     * with ErrorCode::Cancelled right after composing (and
     * checkpointing) this segment index, leaving the checkpoint on
     * disk for a resume.
     */
    std::int64_t stopAfterSegment = -1;
};

} // namespace pap

#endif // PAP_PAP_OPTIONS_H
