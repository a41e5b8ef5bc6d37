#include "spans.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

namespace repobench {

namespace {

std::atomic<SpanRecorder *> gRecorder{nullptr};

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<std::uint64_t> tOpen;

std::uint32_t
threadTag()
{
    return static_cast<std::uint32_t>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) &
        0xffffu);
}

} // namespace

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::toMs(Clock::time_point t) const
{
    return msBetween(origin_, t);
}

std::uint64_t
SpanRecorder::open(const std::string &name, std::uint64_t request)
{
    Span s;
    s.parent = tOpen.empty() ? 0 : tOpen.back();
    s.name = name;
    s.request = request;
    s.thread = threadTag();
    s.startMs = toMs(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    tOpen.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanRecorder::close(std::uint64_t id)
{
    const double end = toMs(Clock::now());
    if (!tOpen.empty() && tOpen.back() == id)
        tOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endMs = end;
}

std::uint64_t
SpanRecorder::add(const std::string &name, std::uint64_t parent,
                  std::uint64_t request, Clock::time_point start,
                  Clock::time_point end)
{
    Span s;
    s.parent = parent;
    s.name = name;
    s.request = request;
    s.thread = threadTag();
    s.startMs = toMs(start);
    s.endMs = toMs(end);
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<SpanRecorder::Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::uint64_t, double>
SpanRecorder::selfMs(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, double> self;
    for (const Span &s : spans)
        self[s.id] += s.endMs - s.startMs;
    for (const Span &s : spans)
        if (s.parent != 0)
            self[s.parent] -= s.endMs - s.startMs;
    return self;
}

std::map<std::string, double>
SpanRecorder::selfMsByName(const std::vector<Span> &spans)
{
    const std::map<std::uint64_t, double> self = selfMs(spans);
    std::map<std::string, double> byName;
    for (const Span &s : spans)
        byName[s.name] += self.at(s.id);
    return byName;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"pid\": 1, \"tid\": %u, \"args\": "
                     "{\"id\": %llu, \"parent\": %llu, \"request\": "
                     "%llu}}%s\n",
                     s.name.c_str(), s.startMs * 1e3,
                     (s.endMs - s.startMs) * 1e3, s.thread,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

SpanRecorder *
activeRecorder()
{
    return gRecorder.load(std::memory_order_acquire);
}

void
setActiveRecorder(SpanRecorder *recorder)
{
    gRecorder.store(recorder, std::memory_order_release);
}

SpanScope::SpanScope(const char *name, std::uint64_t request)
    : recorder_(activeRecorder())
{
    if (recorder_)
        id_ = recorder_->open(name, request);
}

SpanScope::~SpanScope()
{
    if (recorder_)
        recorder_->close(id_);
}

} // namespace repobench
