/**
 * @file
 * Scaffolding shared by the run entry points (runner, speculative,
 * multistream): compiling the automaton and building the hardened-
 * driver options from PapOptions. Hoisted here so every runner
 * describes and executes a run the same way.
 */

#ifndef PAP_PAP_RUN_COMMON_H
#define PAP_PAP_RUN_COMMON_H

#include <chrono>
#include <cstdint>
#include <memory>

#include "engine/compiled_nfa.h"
#include "nfa/nfa.h"
#include "pap/exec/driver.h"
#include "pap/options.h"

namespace pap {

/**
 * Per-run compile context: owns the CompiledNfa (address-stable, so
 * engines referencing it survive moves). Constructing one counts the
 * run in the metrics registry (engine.runs.sparse), so each top-level
 * run creates exactly one.
 */
class RunContext
{
  public:
    /**
     * Compile @p nfa. The engine and density arguments are ignored;
     * the benchmark harness names this three-argument form.
     */
    explicit RunContext(const Nfa &nfa,
                        EngineKind engine = EngineKind::Sparse,
                        double density = -1.0);

    /** The compiled automaton. */
    const CompiledNfa &compiled() const { return *cnfa; }

    /** Same as compiled(); the benchmark harness names this accessor. */
    const CompiledNfa &engines() const { return *cnfa; }

  private:
    std::unique_ptr<const CompiledNfa> cnfa;
};

/** Parse "barrier" / "overlap" / "auto"; typed InvalidInput otherwise. */
Result<PipelineMode> parsePipelineMode(std::string_view text);

/** Stable name of @p mode ("barrier", "overlap", "auto"). */
const char *pipelineModeName(PipelineMode mode);

/**
 * Resolve @p requested to a concrete scheduling mode. Auto consults
 * PAP_PIPELINE — an invalid value is a typed InvalidInput error, like
 * an invalid --pipeline flag — then defaults to Barrier. A successful
 * result is never Auto.
 */
Result<PipelineMode> resolvePipelineMode(PipelineMode requested);

/**
 * Build the hardened-driver options every runner derives from
 * PapOptions: resolved thread count, retry/backoff knobs, injector,
 * and the watchdog's no-progress window — explicit when positive,
 * 5 s when zero, disabled when negative.
 */
exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved);

/**
 * Hash-combine @p v into @p h (splitmix64 finalizer): the mix the
 * runner's and the serve layer's checkpoint identities are built from.
 * Inline: the serve identity mixes every state and edge of a ruleset.
 */
inline std::uint64_t
identityMix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

/** Milliseconds elapsed since @p t0. */
double msSince(std::chrono::steady_clock::time_point t0);

} // namespace pap

#endif // PAP_PAP_RUN_COMMON_H
