#include "pap/exec/driver.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/attrib.h"
#include "obs/metrics.h"

namespace pap {
namespace exec {

namespace {

/** SplitMix64 finalizer: the same mix the fault injector hashes with. */
std::uint64_t
mixJitter(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Park an injected stall until the watchdog cancels it. Bounded even
 * with the watchdog disabled, so a stall fault can never hang a run.
 */
Status
parkStalled(const CancellationToken &token, bool watchdog_armed,
            double deadline_ms)
{
    const auto bound =
        watchdog_armed
            ? std::chrono::milliseconds(
                  static_cast<std::int64_t>(deadline_ms * 20.0) + 1000)
            : std::chrono::milliseconds(25);
    token.waitCancelledFor(bound);
    return Status::error(ErrorCode::DeadlineExceeded,
                         "injected worker stall");
}

} // namespace

std::chrono::milliseconds
retryBackoff(const HardenedExecOptions &options, std::size_t index,
             std::uint32_t retry)
{
    const std::uint32_t shift = std::min<std::uint32_t>(retry, 20);
    const std::uint64_t raw =
        static_cast<std::uint64_t>(options.backoffBaseMs) << shift;
    std::uint64_t delay =
        std::min<std::uint64_t>(raw, options.backoffCapMs);
    if (options.backoffJitter && delay > 1) {
        const std::uint64_t half = delay / 2;
        const std::uint64_t draw = mixJitter(
            mixJitter(options.backoffJitterSeed ^
                      (0x4a49 + static_cast<std::uint64_t>(index))) ^
            retry);
        delay = half + draw % (delay - half + 1);
    }
    return std::chrono::milliseconds(delay);
}

TaskReport
runAttempts(const HardenedExecOptions &options, Watchdog &watchdog,
            std::uint64_t fault_coord, std::size_t jitter_index,
            const AttemptFn &fn, obs::AttribLedger *attrib,
            const AttemptHooks &hooks)
{
    const auto stopped = [&] { return hooks.stopped && hooks.stopped(); };
    TaskReport report;
    const std::uint32_t max_attempts = options.maxRetries + 1;
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (stopped()) {
            if (report.attempts == 0)
                report.status = Status::error(
                    ErrorCode::Cancelled,
                    "cancelled before the task ran");
            break; // otherwise keep the last attempt's failure
        }
        ++report.attempts;
        auto fault = FaultInjector::WorkerFault::None;
        if (options.injector)
            fault = options.injector->onWorkerAttempt(fault_coord, attempt);
        if (fault != FaultInjector::WorkerFault::None)
            ++report.faultsInjected;

        auto token = std::make_shared<CancellationToken>();
        if (hooks.track)
            hooks.track(token);
        const bool armed = options.deadlineMs > 0.0;
        Watchdog::Handle handle = 0;
        if (armed)
            handle = watchdog.arm(
                token, std::chrono::microseconds(static_cast<std::int64_t>(
                           options.deadlineMs * 1000.0)));

        Status status;
        if (fault == FaultInjector::WorkerFault::Stall) {
            status = parkStalled(*token, armed, options.deadlineMs);
        } else if (fault == FaultInjector::WorkerFault::Crash) {
            status = Status::error(ErrorCode::HardwareFault,
                                   "injected worker crash");
        } else {
            try {
                status = fn(*token);
            } catch (const std::exception &e) {
                status = Status::error(ErrorCode::HardwareFault,
                                       "worker crashed: ", e.what());
            } catch (...) {
                status = Status::error(ErrorCode::HardwareFault,
                                       "worker crashed");
            }
        }
        if (armed)
            watchdog.disarm(handle);
        if (hooks.track)
            hooks.track(nullptr);

        if (status.ok()) {
            // Faults on earlier attempts of this task were detected
            // (the attempt failed) and are now repaired by the
            // successful retry.
            if (options.injector && report.faultsInjected > 0 &&
                report.retried)
                options.injector->markRecovered(report.faultsInjected);
            report.status = Status();
            break;
        }

        if (status.code() == ErrorCode::DeadlineExceeded ||
            status.code() == ErrorCode::Cancelled)
            report.timedOut = true;
        if (status.code() == ErrorCode::HardwareFault)
            report.crashed = true;
        if (fault != FaultInjector::WorkerFault::None)
            options.injector->markDetected(1);

        report.status = status; // terminal unless a retry succeeds
        if (attempt + 1 < max_attempts && !stopped()) {
            report.retried = true;
            obs::metrics().add("exec.retry.attempts");
            obs::AttribLedger::Scope backoff(
                attrib, "workers.retry_backoff", /*aux=*/true);
            std::this_thread::sleep_for(
                retryBackoff(options, jitter_index, attempt));
        }
    }
    auto &m = obs::metrics();
    m.add("exec.pool.tasks");
    m.observe("exec.task.attempts",
              static_cast<double>(report.attempts));
    if (!report.status.ok())
        m.add("exec.tasks.failed");
    return report;
}

} // namespace exec
} // namespace pap
