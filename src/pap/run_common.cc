#include "pap/run_common.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace pap {

RunContext::RunContext(const Nfa &nfa, EngineKind, double)
    : cnfa(std::make_unique<const CompiledNfa>(nfa))
{
    obs::metrics().add("engine.runs.sparse");
}

Result<PipelineMode>
parsePipelineMode(std::string_view text)
{
    if (text == "barrier")
        return PipelineMode::Barrier;
    if (text == "overlap")
        return PipelineMode::Overlap;
    if (text == "auto")
        return PipelineMode::Auto;
    return Status::error(ErrorCode::InvalidInput, "unknown pipeline '",
                         std::string(text),
                         "' (expected barrier, overlap, or auto)");
}

const char *
pipelineModeName(PipelineMode mode)
{
    switch (mode) {
    case PipelineMode::Barrier:
        return "barrier";
    case PipelineMode::Overlap:
        return "overlap";
    case PipelineMode::Auto:
        return "auto";
    }
    PAP_PANIC("invalid PipelineMode ", static_cast<int>(mode));
}

Result<PipelineMode>
resolvePipelineMode(PipelineMode requested)
{
    if (requested == PipelineMode::Auto) {
        if (const char *env = std::getenv("PAP_PIPELINE")) {
            const Result<PipelineMode> parsed = parsePipelineMode(env);
            if (!parsed.ok())
                return Status::error(ErrorCode::InvalidInput,
                                     "PAP_PIPELINE: ",
                                     parsed.status().message());
            requested = parsed.value();
        }
    }
    if (requested != PipelineMode::Auto)
        return requested;
    return PipelineMode::Barrier;
}

exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved)
{
    exec::HardenedExecOptions opt;
    opt.threads = threads_resolved;
    opt.maxRetries = options.maxSegmentRetries;
    opt.backoffBaseMs = options.retryBackoffBaseMs;
    opt.backoffCapMs = options.retryBackoffCapMs;
    opt.backoffJitter = options.retryBackoffJitter;
    opt.injector = options.faultInjector;
    if (options.faultInjector)
        opt.backoffJitterSeed = options.faultInjector->seed();
    if (options.segmentDeadlineMs > 0.0) {
        opt.deadlineMs = options.segmentDeadlineMs;
    } else if (options.segmentDeadlineMs == 0.0) {
        // Auto window: a healthy attempt advances every TDM round or
        // 4,096-symbol chunk, far more often than every 5 s, however
        // long its segment.
        opt.deadlineMs = 5000.0;
    } // negative: watchdog disabled (deadlineMs stays 0)
    return opt;
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace pap
