/**
 * @file
 * In-memory spans for the benchmark's traced run. The benchmark wraps
 * its own calls into each papsim module in a span (name, start, end,
 * parent, request id); nothing inside the program is instrumented.
 * Spans stay in memory and are written out once, at exit, as a Chrome
 * trace_event file. With no recorder installed a SpanScope costs one
 * pointer test, which is how untraced runs measure.
 */

#ifndef REPOBENCH_SPANS_H
#define REPOBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"

namespace repobench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        /** Enclosing span (0 = none). */
        std::uint64_t parent = 0;
        std::string name;
        /** Spans of one row or stream share this id. */
        std::uint64_t request = 0;
        /** Milliseconds since the recorder was created. */
        double startMs = 0.0;
        double endMs = 0.0;
        std::uint32_t thread = 0;
    };

    SpanRecorder();

    /** Open a span under the calling thread's innermost open span. */
    std::uint64_t open(const std::string &name, std::uint64_t request);

    /** Close span @p id, which must be the thread's innermost. */
    void close(std::uint64_t id);

    /** Record an already finished interval; returns its id. */
    std::uint64_t add(const std::string &name, std::uint64_t parent,
                      std::uint64_t request, Clock::time_point start,
                      Clock::time_point end);

    std::vector<Span> spans() const;

    /** Span duration minus the durations of its direct children. */
    static std::map<std::uint64_t, double>
    selfMs(const std::vector<Span> &spans);

    /** Self time summed per span name. */
    static std::map<std::string, double>
    selfMsByName(const std::vector<Span> &spans);

    /** Write every span as a Chrome trace_event file. */
    bool writeChromeTrace(const std::string &path) const;

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

  private:
    double toMs(Clock::time_point t) const;

    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** The recorder SpanScope writes to; null disables tracing. */
SpanRecorder *activeRecorder();
void setActiveRecorder(SpanRecorder *recorder);

/** RAII span on the active recorder (a no-op without one). */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::uint64_t request = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *recorder_;
    std::uint64_t id_ = 0;
};

} // namespace repobench

#endif // REPOBENCH_SPANS_H
