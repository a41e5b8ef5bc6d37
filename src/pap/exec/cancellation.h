/**
 * @file
 * Cooperative cancellation for hardened host-parallel execution. A
 * CancellationToken is shared between a worker running one segment
 * attempt and the watchdog that may need to stop it: the worker
 * reports progress and polls cancelled() at TDM-round (or 4,096-symbol
 * chunk) granularity, and the watchdog calls cancel() once the
 * progress count stops moving (a stalled worker parks in
 * waitCancelledFor()). Cancellation is one-way and sticky; every retry
 * attempt gets a fresh token so an expired first attempt cannot
 * poison its retry.
 */

#ifndef PAP_PAP_EXEC_CANCELLATION_H
#define PAP_PAP_EXEC_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace pap {
namespace exec {

class CancellationToken
{
  public:
    CancellationToken() = default;
    CancellationToken(const CancellationToken &) = delete;
    CancellationToken &operator=(const CancellationToken &) = delete;

    /** Request cancellation. Idempotent, thread-safe. */
    void
    cancel()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flag_.store(true, std::memory_order_release);
        }
        cv_.notify_all();
    }

    /** True once cancel() has been called. Cheap enough to poll. */
    bool
    cancelled() const
    {
        return flag_.load(std::memory_order_acquire);
    }

    /**
     * Record that the worker advanced (one TDM round or symbol
     * chunk). Const because the worker holds the token read-only;
     * the count is a relaxed heartbeat, not a synchronization point.
     */
    void
    advance() const
    {
        progress_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Progress steps recorded so far (the watchdog's liveness probe). */
    std::uint64_t
    progress() const
    {
        return progress_.load(std::memory_order_relaxed);
    }

    /**
     * Block until cancelled or @p timeout elapses. Returns true when
     * the wakeup was a cancellation (used by the injected stall-worker
     * fault to park deterministically until the watchdog fires).
     */
    bool
    waitCancelledFor(std::chrono::nanoseconds timeout) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, timeout, [this] {
            return flag_.load(std::memory_order_acquire);
        });
    }

  private:
    std::atomic<bool> flag_{false};
    mutable std::atomic<std::uint64_t> progress_{0};
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_CANCELLATION_H
