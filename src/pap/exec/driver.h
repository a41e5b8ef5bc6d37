/**
 * @file
 * The hardened attempt ladder under every driver: runPap,
 * runSpeculative and runMultiStream reach it through SegmentPipeline,
 * and the serve layer calls it once per chunk. runAttempts() wraps a
 * task in three resilience layers:
 *
 *  1. a progress Watchdog — an attempt whose CancellationToken stops
 *     advancing for deadlineMs is cancelled through it and surfaces
 *     as ErrorCode::DeadlineExceeded;
 *  2. capped-exponential-backoff retry — a failed attempt (deadline,
 *     crash, or error Status) is retried up to maxRetries times, each
 *     retry on a fresh token so an expired attempt cannot poison it;
 *  3. structured failure reporting — a task that exhausts its retries
 *     reports its terminal Status so the caller can fall back to the
 *     sequential oracle for just that piece of work.
 *
 * Injected worker faults (stall, crash) strike here too, keyed by the
 * caller's fault coordinate, and are marked detected when the attempt
 * fails and recovered when a retry succeeds.
 *
 * Determinism contract: tasks must write only to their own preallocated
 * output slot; every cross-task reduction belongs in the caller, run in
 * index order — that is what keeps reports and per-figure metrics
 * byte-identical for any thread count.
 */

#ifndef PAP_PAP_EXEC_DRIVER_H
#define PAP_PAP_EXEC_DRIVER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/error.h"
#include "pap/exec/cancellation.h"
#include "pap/exec/watchdog.h"
#include "pap/fault_injector.h"

namespace pap {
namespace obs {
class AttribLedger;
} // namespace obs

namespace exec {

/** Tuning for the attempt ladder and the pool around it. */
struct HardenedExecOptions
{
    /** Pool width; pass through WorkerPool::resolveThreads first. */
    std::uint32_t threads = 1;
    /** Extra attempts after the first (0 disables retry). */
    std::uint32_t maxRetries = 2;
    /** Watchdog window: an attempt that makes no progress for this
     *  long is cancelled; <= 0 disables the watchdog. */
    double deadlineMs = 0.0;
    /** First retry backoff; doubles per retry up to backoffCapMs. */
    std::uint32_t backoffBaseMs = 1;
    std::uint32_t backoffCapMs = 64;
    /**
     * Decorrelate retries: when true, each backoff sleep keeps half
     * its capped-exponential delay and replaces the rest with a draw
     * from a pure hash of (backoffJitterSeed, task index, retry), so
     * workers that fail in lockstep do not retry in lockstep. Timing
     * only — never observable in reports or metrics other than wall
     * clock, and never above the un-jittered delay.
     */
    bool backoffJitter = true;
    std::uint64_t backoffJitterSeed = 0;
    /** Optional injector consulted before every attempt. */
    FaultInjector *injector = nullptr;
};

/** Outcome of one task across all of its attempts. */
struct TaskReport
{
    /** OK, or the terminal failure after retries were exhausted. */
    Status status;
    /** Attempts made (>= 1). */
    std::uint32_t attempts = 0;
    /** True when any attempt after the first was needed. */
    bool retried = false;
    /** True when any attempt hit the watchdog deadline. */
    bool timedOut = false;
    /** True when any attempt crashed (injected or thrown). */
    bool crashed = false;
    /** Worker faults the injector fired across this task's attempts. */
    std::uint32_t faultsInjected = 0;
};

/** A task body: runs piece @p index, polling @p cancel cooperatively. */
using TaskFn =
    std::function<Status(std::size_t index,
                         const CancellationToken &cancel)>;

/** One attempt of a task, polling @p cancel cooperatively. */
using AttemptFn = std::function<Status(const CancellationToken &cancel)>;

/**
 * How a scheduler stops a ladder from outside. Both hooks are
 * optional.
 */
struct AttemptHooks
{
    /** Polled before each attempt and each retry; true ends the ladder. */
    std::function<bool()> stopped;
    /**
     * Receives each attempt's token as it starts (so the scheduler can
     * cancel it) and nullptr once the attempt has ended.
     */
    std::function<void(const std::shared_ptr<CancellationToken> &)> track;
};

/**
 * The backoff delay before retry @p retry (0-based) of task @p index:
 * base * 2^retry capped at backoffCapMs — and, with jitter enabled,
 * half that plus a draw from a pure hash of (backoffJitterSeed, index,
 * retry). A pure function of its arguments: the same tuple sleeps the
 * same amount for every thread count and scheduling order, and the
 * jittered delay never exceeds the deterministic one.
 */
std::chrono::milliseconds retryBackoff(const HardenedExecOptions &options,
                                       std::size_t index,
                                       std::uint32_t retry);

/**
 * Run @p fn through the attempt ladder and return its report. Each
 * attempt gets a fresh token, armed on @p watchdog when
 * options.deadlineMs > 0. The injector picks worker faults by
 * @p fault_coord; retry sleeps draw their jitter from @p jitter_index
 * and are charged to @p attrib's aux bucket "workers.retry_backoff"
 * when a ledger is given. A thrown exception is an attempt that
 * crashed (ErrorCode::HardwareFault). Only a failed attempt is ever
 * retried. Records exec.pool.tasks, exec.task.attempts,
 * exec.retry.attempts and exec.tasks.failed.
 */
TaskReport runAttempts(const HardenedExecOptions &options,
                       Watchdog &watchdog, std::uint64_t fault_coord,
                       std::size_t jitter_index, const AttemptFn &fn,
                       obs::AttribLedger *attrib = nullptr,
                       const AttemptHooks &hooks = {});

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_DRIVER_H
