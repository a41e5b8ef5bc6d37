#include "pap/exec/watchdog.h"

#include <fstream>
#include <string>

#include <sys/syscall.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace pap {
namespace exec {

namespace {

/**
 * Time thread @p tid of this process has spent runnable but waiting
 * for a CPU (the second field of Linux's schedstat), or zero when the
 * kernel does not expose it.
 */
Watchdog::Clock::duration
runQueueWait(long tid)
{
    std::ifstream in("/proc/self/task/" + std::to_string(tid) +
                     "/schedstat");
    unsigned long long on_cpu_ns = 0;
    unsigned long long waited_ns = 0;
    if (!(in >> on_cpu_ns >> waited_ns))
        return {};
    return std::chrono::nanoseconds(waited_ns);
}

} // namespace

Watchdog::Watchdog() : monitor_([this] { monitorLoop(); }) {}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    monitor_.join();
}

Watchdog::Handle
Watchdog::arm(std::shared_ptr<CancellationToken> token,
              Clock::duration window)
{
    const long tid = ::syscall(SYS_gettid);
    const Clock::duration waited = runQueueWait(tid);
    Handle handle;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        handle = nextHandle_++;
        const std::uint64_t progress = token->progress();
        const Clock::time_point now = Clock::now();
        entries_.emplace(handle, Entry{std::move(token), window, tid,
                                       progress, now, waited,
                                       now + window});
    }
    wake_.notify_all(); // the new deadline may be the nearest
    return handle;
}

void
Watchdog::disarm(Handle handle)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.erase(handle);
}

std::uint64_t
Watchdog::expiries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return expiries_;
}

void
Watchdog::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        const Clock::time_point now = Clock::now();

        // At the end of an entry's window, an attempt that advanced
        // opens a fresh window. One that did not is cancelled once it
        // has gone a whole window without progress, not counting the
        // time its thread waited for a CPU; until then its window is
        // stretched by that wait. Find the nearest window end among
        // the live entries.
        Clock::time_point nearest = Clock::time_point::max();
        for (auto it = entries_.begin(); it != entries_.end();) {
            Entry &e = it->second;
            if (e.deadline <= now) {
                const std::uint64_t progress = e.token->progress();
                const Clock::duration waited = runQueueWait(e.thread);
                if (progress != e.progress) {
                    e.progress = progress;
                    e.opened = now;
                    e.waitedAtOpen = waited;
                    e.deadline = now + e.window;
                } else {
                    const Clock::duration stalled =
                        (now - e.opened) - (waited - e.waitedAtOpen);
                    if (stalled >= e.window) {
                        e.token->cancel();
                        ++expiries_;
                        obs::metrics().add("exec.watchdog.timeouts");
                        it = entries_.erase(it);
                        continue;
                    }
                    e.deadline = now + (e.window - stalled);
                }
            }
            nearest = std::min(nearest, e.deadline);
            ++it;
        }

        if (nearest == Clock::time_point::max())
            wake_.wait(lock, [this] {
                return stopping_ || !entries_.empty();
            });
        else
            wake_.wait_until(lock, nearest);
    }
}

} // namespace exec
} // namespace pap
