/**
 * @file
 * Dependency-aware segment pipeline: the scheduler under the PAP run
 * drivers. A SegmentPipeline fans index-addressed tasks out over a
 * WorkerPool, runs each through the attempt ladder (exec::runAttempts:
 * watchdog, capped-exponential retry, fault-injection hooks,
 * structured TaskReport per task) and hands results to the caller one
 * index at a time through await(), so a composer stage can consume
 * segment i while segments > i still execute.
 *
 * Two scheduling modes share this one implementation:
 *
 *  - barrier: every task is submitted and run to completion inside
 *    the constructor; await() never blocks.
 *  - overlap: tasks are admitted through a bounded handoff window
 *    ahead of the composition frontier; await(i) blocks until task i
 *    finishes (the composer stall this pipeline exists to shrink) and
 *    each consumed index admits more work.
 *
 * Because both modes run the identical per-attempt loop and the
 * caller consumes reports in index order either way, reports and
 * per-figure metrics are byte-identical between modes for any thread
 * count — only wall-clock differs.
 *
 * Determinism contract (the ladder's): tasks write only
 * to their own output slot; every cross-task reduction belongs in the
 * caller, folded in index order as await() returns.
 *
 * Cancellation: cancelRemaining() cancels the in-flight attempts'
 * tokens and marks every not-yet-started task Cancelled without
 * running it; the destructor does the same before draining, so
 * abandoning a pipeline (checkpoint kill, early error return) is
 * bounded and safe.
 */

#ifndef PAP_PAP_EXEC_PIPELINE_H
#define PAP_PAP_EXEC_PIPELINE_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pap/exec/driver.h"
#include "pap/exec/watchdog.h"
#include "pap/exec/worker_pool.h"

namespace pap {
namespace obs {
class AttribLedger;
} // namespace obs

namespace exec {

class SegmentPipeline
{
  public:
    struct Options
    {
        /** Hardening knobs (threads, retry, watchdog, injector). */
        HardenedExecOptions exec;
        /** False: run everything in the constructor (barrier mode). */
        bool overlap = false;
        /**
         * Optional attribution ledger (not owned). Worker-side time
         * that overlaps the caller's wall clock is charged to aux
         * buckets here: retry backoff sleeps ("workers.retry_backoff").
         */
        obs::AttribLedger *attrib = nullptr;
        /**
         * Bounded handoff window: how many tasks may be admitted
         * ahead of the composition frontier in overlap mode
         * (0 = auto: max(4, 2 * threads)). Ignored in barrier mode.
         */
        std::size_t window = 0;
    };

    /**
     * Start executing tasks [0, count). In barrier mode this blocks
     * until every task has finished; in overlap mode it returns once
     * the first window of tasks is submitted.
     */
    SegmentPipeline(const Options &options, std::size_t count,
                    TaskFn fn);

    /** Cancels whatever is still pending, then drains the pool. */
    ~SegmentPipeline();

    SegmentPipeline(const SegmentPipeline &) = delete;
    SegmentPipeline &operator=(const SegmentPipeline &) = delete;

    /**
     * Block until task @p index has finished and return its report
     * (valid until the pipeline is destroyed). Consuming an index
     * advances the admission frontier: tasks up to index + window are
     * submitted. The composer calls this in index order; out-of-order
     * awaits are legal and simply wait.
     */
    const TaskReport &await(std::size_t index);

    /**
     * Cancel every task that has not started (they report
     * ErrorCode::Cancelled without running) and cancel the tokens of
     * in-flight attempts (no further retries). Idempotent.
     */
    void cancelRemaining();

    /** await() calls that had to block (composer stalls). */
    std::uint64_t composerStalls() const;

    /** Total wall-clock time await() spent blocked, in ms. */
    double composerStallMs() const;

  private:
    void runTask(std::size_t index);
    void maybeSubmitLocked();
    /** The task's trace flow id (0 when tracing was off at admission). */
    std::uint64_t flowId(std::size_t index) const;

    Options opts_;
    TaskFn fn_;
    Watchdog watchdog_;
    std::vector<TaskReport> reports_;
    std::unique_ptr<WorkerPool> pool_;

    mutable std::mutex mutex_;
    std::condition_variable doneCv_;
    std::vector<std::uint8_t> done_;
    /** Current attempt's token per in-flight task (for cancellation). */
    std::vector<std::shared_ptr<CancellationToken>> live_;
    std::size_t window_ = 1;
    std::size_t nextSubmit_ = 0;
    /** One past the highest index the composer has consumed. */
    std::size_t frontier_ = 0;
    /** Tasks whose runTask has finished (inflight = submitted - done). */
    std::size_t doneCount_ = 0;
    bool cancelled_ = false;
    std::uint64_t stalls_ = 0;
    double stallMs_ = 0.0;
    /** Per-task trace flow ids (admission -> execution -> consume). */
    std::vector<std::uint64_t> flowIds_;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_PIPELINE_H
