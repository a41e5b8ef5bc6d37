/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   repobench --workload <table1-enum|table1-golden|serve-snort>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
 *
 * Prints provenance and every metric by name and unit, then, as the
 * last line, one JSON object: correct, attempted, failed and the
 * metrics of the mode (end-to-end untraced, per-layer traced). Exits
 * 0 when every report matched its oracle and every invariant held,
 * 1 otherwise, 2 on bad usage or a refused environment.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unistd.h>

#include "engine/simd.h"
#include "spans.h"
#include "workloads.h"

using namespace repobench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\nusage: repobench --workload "
                 "<table1-enum|table1-golden|serve-snort> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansOut;
    RunConfig config;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage(("missing value for " + arg).c_str());
        }
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            config.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            config.seconds = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(config.seconds >= 0.0))
                return usage("bad --seconds");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            config.trace = value == "1";
        } else if (arg == "--spans-out") {
            spansOut = value;
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
    }
    if (!haveSeed)
        return usage("--seed <n> is required");
    if (workload != "table1-enum" && workload != "table1-golden" &&
        workload != "serve-snort")
        return usage(("unknown workload '" + workload + "'").c_str());

    // The benchmark measures the defaults a user gets; a stray
    // selection variable would silently change the program measured.
    for (const char *var :
         {"PAP_ENGINE", "PAP_SIMD", "PAP_PIPELINE", "PAP_THREADS"})
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "repobench: refusing to run with %s set\n", var);
            return 2;
        }

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    const unsigned hwc = std::thread::hardware_concurrency();
    config.threads = static_cast<std::uint32_t>(nproc > 0 ? nproc : 1);
    std::printf("repobench workload=%s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0);
    std::printf("provenance: nproc=%ld hardware_concurrency=%u "
                "build_type=%s threads=%u simd=%s\n",
                nproc, hwc, REPOBENCH_BUILD_TYPE, config.threads,
                pap::simdLevelName(pap::currentSimdLevel()));

    SpanRecorder recorder;
    if (config.trace)
        setActiveRecorder(&recorder);
    Outcome outcome;
    if (workload == "table1-enum")
        outcome = runTable1(config, table1EnumRows());
    else if (workload == "table1-golden")
        outcome = runTable1(config, table1GoldenRows());
    else
        outcome = runServe(config);
    setActiveRecorder(nullptr);
    if (config.trace && !spansOut.empty()) {
        if (recorder.writeChromeTrace(spansOut))
            std::printf("spans -> %s (%zu spans)\n", spansOut.c_str(),
                        recorder.spans().size());
        else
            std::fprintf(stderr, "repobench: cannot write %s\n",
                         spansOut.c_str());
    }

    std::string error;
    const std::string json = resultJson(outcome, config.trace, &error);
    if (json.empty()) {
        std::fprintf(stderr, "repobench: %s\n", error.c_str());
        return 1;
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
}
