/**
 * @file
 * Progress watchdog for hardened host-parallel execution. Workers arm
 * an entry (cancellation token + liveness window) before starting a
 * segment attempt and disarm it on completion; one monitor thread
 * sleeps until the nearest window ends, and cancels the token of any
 * attempt whose progress count (CancellationToken::advance) has not
 * moved for a whole window. A slow attempt that keeps advancing is
 * never cancelled, however long it runs, so whether a run degrades
 * does not depend on host speed. Nor does it depend on host load: a
 * window counts only the time the attempt's thread was running or
 * blocked, not the time the OS kept it runnable but off every CPU
 * (Linux's per-thread run-queue wait; where that is unreadable the
 * window is plain wall time). Expiries are counted so the retry
 * layer and the metrics registry can account every timeout.
 */

#ifndef PAP_PAP_EXEC_WATCHDOG_H
#define PAP_PAP_EXEC_WATCHDOG_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "pap/exec/cancellation.h"

namespace pap {
namespace exec {

class Watchdog
{
  public:
    using Clock = std::chrono::steady_clock;
    using Handle = std::uint64_t;

    Watchdog();

    /** Cancels nothing on shutdown; just stops the monitor thread. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /**
     * Watch @p token until disarm(): if its progress count stays put
     * for @p window the token is cancelled and the expiry counted.
     * Call it on the thread that runs the attempt: that thread's
     * run-queue wait is left out of the window.
     */
    Handle arm(std::shared_ptr<CancellationToken> token,
               Clock::duration window);

    /** Stop watching @p handle (idempotent; fine after an expiry). */
    void disarm(Handle handle);

    /** Deadlines that expired over this watchdog's lifetime. */
    std::uint64_t expiries() const;

  private:
    struct Entry
    {
        std::shared_ptr<CancellationToken> token;
        Clock::duration window;
        /** The attempt's thread (Linux thread id). */
        long thread;
        /** Progress count seen when the current window opened. */
        std::uint64_t progress;
        /** When the current window opened, and the thread's run-queue
         *  wait then. */
        Clock::time_point opened;
        Clock::duration waitedAtOpen;
        /** When the current window closes, unless the thread waited
         *  for a CPU meanwhile. */
        Clock::time_point deadline;
    };

    void monitorLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::map<Handle, Entry> entries_;
    Handle nextHandle_ = 1;
    std::uint64_t expiries_ = 0;
    bool stopping_ = false;
    std::thread monitor_;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_WATCHDOG_H
