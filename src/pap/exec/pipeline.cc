#include "pap/exec/pipeline.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {
namespace exec {

SegmentPipeline::SegmentPipeline(const Options &options,
                                 std::size_t count, TaskFn fn)
    : opts_(options), fn_(std::move(fn)), reports_(count),
      done_(count, 0), live_(count), flowIds_(count, 0)
{
    const std::uint32_t threads =
        std::max<std::uint32_t>(1, opts_.exec.threads);
    obs::metrics().setGauge("exec.pool.threads",
                            static_cast<double>(threads));
    window_ = opts_.overlap
                  ? (opts_.window
                         ? opts_.window
                         : std::max<std::size_t>(
                               4, 2 * static_cast<std::size_t>(threads)))
                  : std::max<std::size_t>(count, 1);
    if (count == 0)
        return;
    pool_ = std::make_unique<WorkerPool>(threads);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        maybeSubmitLocked();
    }
    if (!opts_.overlap)
        pool_->drain(); // barrier: everything finishes before return
}

SegmentPipeline::~SegmentPipeline()
{
    if (!pool_)
        return;
    cancelRemaining();
    pool_->drain();
}

const TaskReport &
SegmentPipeline::await(std::size_t index)
{
    PAP_ASSERT(index < reports_.size(),
               "await past the end of the pipeline");
    std::unique_lock<std::mutex> lock(mutex_);
    double waited_ms = 0.0;
    if (!done_[index]) {
        ++stalls_;
        const auto t0 = std::chrono::steady_clock::now();
        doneCv_.wait(lock, [&] { return done_[index] != 0; });
        waited_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        stallMs_ += waited_ms;
    }
    if (obs::TraceSink *sink = obs::tracer()) {
        // Consume marker on the composer's track, closing the
        // segment's admission -> execution -> consume causal flow.
        sink->begin("pipeline.consume", "pipeline");
        if (flowIds_[index])
            sink->flow('f', "segment", flowIds_[index]);
        sink->end({{"index", static_cast<double>(index)},
                   {"stall_ms", waited_ms}});
    }
    if (index + 1 > frontier_) {
        frontier_ = index + 1;
        maybeSubmitLocked();
    }
    return reports_[index];
}

void
SegmentPipeline::cancelRemaining()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cancelled_ = true;
        for (auto &token : live_)
            if (token)
                token->cancel();
        // Tasks never admitted to the pool can no longer run (the
        // admission loop checks cancelled_); mark them done with a
        // Cancelled report so await() on them returns instead of
        // blocking forever.
        for (std::size_t i = nextSubmit_; i < reports_.size(); ++i)
            if (!done_[i]) {
                reports_[i].status = Status::error(
                    ErrorCode::Cancelled,
                    "pipeline cancelled before the task ran");
                done_[i] = 1;
            }
    }
    doneCv_.notify_all();
}

std::uint64_t
SegmentPipeline::composerStalls() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stalls_;
}

double
SegmentPipeline::composerStallMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stallMs_;
}

std::uint64_t
SegmentPipeline::flowId(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flowIds_[index];
}

/** Admit tasks up to the handoff window past the frontier. */
void
SegmentPipeline::maybeSubmitLocked()
{
    obs::TraceSink *sink = obs::tracer();
    while (nextSubmit_ < reports_.size() && !cancelled_ &&
           nextSubmit_ < frontier_ + window_) {
        const std::size_t i = nextSubmit_++;
        if (sink) {
            // Admission marker: opens the segment's causal flow on
            // the admitting (composer) thread. The id travels to the
            // worker ('t') and back to the consume marker ('f').
            flowIds_[i] = obs::TraceSink::newFlowId();
            sink->begin("pipeline.admit", "pipeline");
            sink->flow('s', "segment", flowIds_[i]);
            sink->end({{"index", static_cast<double>(i)}});
            sink->counterEvent(
                "pipeline.inflight",
                static_cast<double>(nextSubmit_ - doneCount_));
        }
        const bool accepted =
            pool_->submit([this, i] { runTask(i); });
        PAP_ASSERT(accepted, "pipeline pool rejected a submission");
    }
}

void
SegmentPipeline::runTask(std::size_t index)
{
    obs::TraceSink *const sink = obs::tracer();
    if (sink) {
        sink->begin("pipeline.task", "pipeline");
        if (const std::uint64_t id = flowId(index))
            sink->flow('t', "segment", id);
    }
    AttemptHooks hooks;
    hooks.stopped = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return cancelled_;
    };
    hooks.track = [this, index](
                      const std::shared_ptr<CancellationToken> &token) {
        std::lock_guard<std::mutex> lock(mutex_);
        live_[index] = token;
        if (token && cancelled_)
            token->cancel();
    };
    reports_[index] = runAttempts(
        opts_.exec, watchdog_, index, index,
        [&](const CancellationToken &cancel) { return fn_(index, cancel); },
        opts_.attrib, hooks);
    std::size_t inflight = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_[index] = 1;
        ++doneCount_;
        inflight = nextSubmit_ - doneCount_;
    }
    if (sink) {
        sink->end({{"index", static_cast<double>(index)},
                   {"attempts",
                    static_cast<double>(reports_[index].attempts)}});
        sink->counterEvent("pipeline.inflight",
                           static_cast<double>(inflight));
    }
    doneCv_.notify_all();
}

} // namespace exec
} // namespace pap
