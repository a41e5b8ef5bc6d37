#include "pap/segment_sim.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/fault_injector.h"

namespace pap {

SegmentRun
runGoldenSegment(const CompiledNfa &cnfa, const Symbol *data,
                 std::uint64_t seg_begin, std::uint64_t seg_len,
                 EngineScratch &scratch, FaultInjector *injector,
                 const exec::CancellationToken *cancel,
                 const std::vector<StateId> *start)
{
    PAP_TRACE_SCOPE("segment.golden");
    obs::metrics().add("segment_sim.flows.golden");
    SegmentRun run;
    run.segBegin = seg_begin;
    run.segLen = seg_len;

    FunctionalEngine engine(cnfa, /*starts=*/true, &scratch);
    engine.reset(start ? *start : cnfa.initialActive(), seg_begin);
    if (!cancel) {
        engine.run(data, seg_len);
    } else {
        // Chunked so the watchdog sees progress and a cancellation is
        // honored promptly.
        std::uint64_t pos = 0;
        while (pos < seg_len && !cancel->cancelled()) {
            const std::uint64_t n =
                std::min(kProgressChunkSymbols, seg_len - pos);
            engine.run(data + pos, n);
            pos += n;
            cancel->advance();
        }
    }

    FlowRecord rec;
    rec.id = 0;
    rec.kind = FlowKind::Golden;
    rec.symbolsProcessed = seg_len;
    rec.cause = DeathCause::RanToEnd;
    rec.finalSnapshot = engine.snapshot();
    rec.counters = engine.counters();
    rec.reports = engine.takeReports();
    if (injector)
        injector->onReportDrain(rec.reports, seg_begin);
    run.flows.push_back(std::move(rec));
    return run;
}

namespace {

/** Execution state for one flow during the lockstep TDM loop. */
struct LiveFlow
{
    std::unique_ptr<FunctionalEngine> engine;
    FlowRecord record;
    bool alive = true;
};

} // namespace

SegmentRun
runEnumSegment(const CompiledNfa &cnfa, const FlowPlan &plan,
               const std::vector<StateId> &asg_seed, const Symbol *data,
               std::uint64_t seg_begin, std::uint64_t seg_len,
               const PapOptions &options, EngineScratch &scratch,
               FlowId asg_flow_id, const exec::CancellationToken *cancel)
{
    PAP_TRACE_SCOPE("segment.enumerate");
    FaultInjector *injector = options.faultInjector;
    SegmentRun run;
    run.segBegin = seg_begin;
    run.segLen = seg_len;

    std::vector<LiveFlow> live;
    live.reserve(plan.flows.size() + 1);

    // The ASG flow carries all spontaneous (start-state) activity and
    // the always-active states; it is always a true flow.
    int asg_live_index = -1;
    if (!asg_seed.empty()) {
        LiveFlow lf;
        lf.engine = std::make_unique<FunctionalEngine>(
            cnfa, /*starts=*/true, &scratch);
        lf.engine->reset(asg_seed, seg_begin);
        lf.record.id = asg_flow_id == kInvalidFlow
                           ? static_cast<FlowId>(plan.flows.size())
                           : asg_flow_id;
        lf.record.kind = FlowKind::Asg;
        asg_live_index = 0;
        live.push_back(std::move(lf));
    }

    for (const auto &spec : plan.flows) {
        LiveFlow lf;
        lf.engine = std::make_unique<FunctionalEngine>(
            cnfa, /*starts=*/false, &scratch);
        lf.engine->reset(spec.seed, seg_begin);
        lf.record.id = spec.id;
        lf.record.kind = FlowKind::Enum;
        lf.record.pathIdx = spec.pathIdx;
        live.push_back(std::move(lf));
    }

    const std::uint64_t quantum = options.tdmQuantum;
    const std::uint64_t early_gran =
        std::max<std::uint32_t>(1, options.earlyCheckGranularity);

    std::uint64_t processed = 0;
    std::uint64_t round = 0;
    while (processed < seg_len) {
        if (cancel) {
            if (cancel->cancelled())
                break; // partial run; the hardened driver discards it
            cancel->advance();
        }
        const std::uint64_t round_end =
            std::min(processed + quantum, seg_len);

        for (std::size_t i = 0; i < live.size(); ++i) {
            auto &lf = live[i];
            if (!lf.alive)
                continue;
            const bool is_enum = lf.record.kind == FlowKind::Enum;

            if (is_enum && lf.engine->dead()) {
                // Already empty; it produces nothing more. Charge it
                // only up to the boundary where the check would fire.
                if (options.enableDeactivationChecks) {
                    lf.alive = false;
                    lf.record.cause = DeathCause::Deactivated;
                    lf.record.symbolsProcessed = processed;
                    continue;
                }
            }

            std::uint64_t pos = processed;
            if (is_enum && round == 0 &&
                options.enableDeactivationChecks) {
                // Extra fine-grained deactivation checks before the
                // first TDM step completes.
                while (pos < round_end) {
                    const std::uint64_t chunk_end =
                        std::min(pos + early_gran, round_end);
                    lf.engine->run(data + pos, chunk_end - pos);
                    pos = chunk_end;
                    if (lf.engine->dead()) {
                        lf.alive = false;
                        lf.record.cause = DeathCause::Deactivated;
                        lf.record.symbolsProcessed = pos;
                        break;
                    }
                }
                continue;
            }

            // A dead enumeration engine can never revive (it has no
            // start machinery), so skip the no-op stepping; ASG and
            // golden flows always run because AllInput starts re-enable
            // states every cycle.
            if (!is_enum || !lf.engine->dead())
                lf.engine->run(data + pos, round_end - pos);

            if (is_enum && options.enableDeactivationChecks &&
                lf.engine->dead()) {
                // Deactivation check at the context switch.
                lf.alive = false;
                lf.record.cause = DeathCause::Deactivated;
                lf.record.symbolsProcessed = round_end;
            }
        }

        processed = round_end;
        ++round;

        // Injected SVC faults strike at the context switch, when the
        // state vector passes through the cache: a corrupt entry
        // reloads with one state flipped, an evicted entry reloads
        // all-zero.
        if (injector) {
            for (auto &lf : live) {
                if (!lf.alive)
                    continue;
                switch (injector->onContextSwitch(lf.record.id,
                                                 seg_begin)) {
                  case FaultInjector::SvAction::Corrupt: {
                    std::vector<StateId> v = lf.engine->snapshot();
                    injector->corruptVector(
                        v, static_cast<StateId>(cnfa.size()),
                        seg_begin);
                    lf.engine->overwriteActive(v);
                    break;
                  }
                  case FaultInjector::SvAction::Evict:
                    lf.engine->overwriteActive({});
                    break;
                  case FaultInjector::SvAction::None:
                    break;
                }
            }
        }

        // Dynamic convergence checks every N TDM steps.
        if (options.enableConvergenceChecks &&
            round % options.convergenceCheckPeriod == 0 &&
            processed < seg_len) {
            std::unordered_map<std::uint64_t, std::vector<std::size_t>>
                buckets;
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (!live[i].alive ||
                    live[i].record.kind != FlowKind::Enum)
                    continue;
                buckets[live[i].engine->stateHash()].push_back(i);
            }
            for (auto &[hash, members] : buckets) {
                if (members.size() < 2)
                    continue;
                // Lowest index survives; verify equality exactly (the
                // SVC comparator is bitwise, not a hash) with a cached
                // sorted-id compare.
                const auto &winner = *live[members.front()].engine;
                for (std::size_t m = 1; m < members.size(); ++m) {
                    auto &loser = live[members[m]];
                    if (!loser.engine->sameActiveSet(winner))
                        continue;
                    loser.alive = false;
                    loser.record.cause = DeathCause::Converged;
                    loser.record.mergedInto =
                        live[members.front()].record.id;
                    loser.record.mergeSymbol = processed;
                    loser.record.symbolsProcessed = processed;
                }
            }
        }
    }

    // Finalize records.
    for (auto &lf : live) {
        if (lf.alive) {
            lf.record.cause = DeathCause::RanToEnd;
            lf.record.symbolsProcessed = seg_len;
            lf.record.finalSnapshot = lf.engine->snapshot();
        }
        lf.record.counters = lf.engine->counters();
        lf.record.reports = lf.engine->takeReports();
        if (injector)
            injector->onReportDrain(lf.record.reports, seg_begin);
        run.flows.push_back(std::move(lf.record));
    }
    run.asgIndex = asg_live_index;

    auto &m = obs::metrics();
    m.add("segment_sim.flows.enum", plan.flows.size());
    if (asg_live_index >= 0)
        m.add("segment_sim.flows.asg");
    const FlowOutcomes outcomes = countFlowOutcomes(run);
    if (outcomes.deactivated)
        m.add("segment_sim.deactivations", outcomes.deactivated);
    if (outcomes.converged)
        m.add("segment_sim.convergence_merges", outcomes.converged);
    for (const auto &rec : run.flows) {
        if (rec.kind != FlowKind::Enum)
            continue;
        if (rec.cause == DeathCause::Converged)
            m.observe("segment_sim.merge_symbol",
                      static_cast<double>(rec.mergeSymbol));
        m.observe("segment_sim.flow_symbols",
                  static_cast<double>(rec.symbolsProcessed));
    }
    return run;
}

FlowOutcomes
countFlowOutcomes(const SegmentRun &run)
{
    FlowOutcomes out;
    for (const auto &rec : run.flows) {
        if (rec.kind != FlowKind::Enum)
            continue;
        switch (rec.cause) {
          case DeathCause::Deactivated: ++out.deactivated; break;
          case DeathCause::Converged: ++out.converged; break;
          case DeathCause::RanToEnd: ++out.ranToEnd; break;
        }
    }
    return out;
}

std::uint32_t
resolveSvcCapacity(const PapOptions &options, const ApConfig &config)
{
    return options.svcCapacity > 0 ? options.svcCapacity
                                   : config.svcEntriesPerDevice;
}

std::uint32_t
svcBatchCapacity(std::uint32_t svc_capacity, bool has_asg)
{
    const std::uint32_t asg_slots = has_asg ? 1u : 0u;
    return std::max<std::uint32_t>(
        1, svc_capacity - std::min(svc_capacity - 1, asg_slots));
}

SegmentExecution
executeSegment(const CompiledNfa &cnfa, const FlowPlan *plan,
               const std::vector<StateId> &asg, const Symbol *data,
               std::uint64_t seg_begin, std::uint64_t seg_len,
               const PapOptions &options, std::uint32_t svc_capacity,
               const exec::CancellationToken *cancel,
               obs::AttribLedger *attrib)
{
    if (options.faultInjector)
        options.faultInjector->beginSegmentAttempt(seg_begin);
    EngineScratch scratch(cnfa.size());
    SegmentExecution out;
    if (!plan) {
        out.run = runGoldenSegment(cnfa, data, seg_begin, seg_len,
                                   scratch, options.faultInjector, cancel);
        return out;
    }
    const std::size_t batch_cap =
        svcBatchCapacity(svc_capacity, !asg.empty());
    if (plan->flows.size() <= batch_cap ||
        options.overflowPolicy == OverflowPolicy::Evict) {
        // Running unbatched means convergence merging sees every flow
        // (batching confines it within a batch), and makes the reports
        // byte-identical across policies and capacities by
        // construction.
        out.run = runEnumSegment(cnfa, *plan, asg, data, seg_begin,
                                 seg_len, options, scratch, kInvalidFlow,
                                 cancel);
        return out;
    }
    const auto asg_id = static_cast<FlowId>(plan->flows.size());
    const std::vector<StateId> no_asg;
    out.run.segBegin = seg_begin;
    out.run.segLen = seg_len;
    std::uint32_t b = 0;
    for (std::size_t first = 0;
         first < plan->flows.size() && !(cancel && cancel->cancelled());
         first += batch_cap, ++b) {
        // Re-upload batches past the first are pure SVC overflow
        // overhead: account them separately.
        obs::AttribLedger::Scope batch_time(b > 0 ? attrib : nullptr,
                                            "workers.svc_batch",
                                            /*aux=*/true);
        const std::size_t last =
            std::min(plan->flows.size(), first + batch_cap);
        FlowPlan sub;
        sub.flows.assign(plan->flows.begin() +
                             static_cast<std::ptrdiff_t>(first),
                         plan->flows.begin() +
                             static_cast<std::ptrdiff_t>(last));
        SegmentRun part = runEnumSegment(
            cnfa, sub, b == 0 ? asg : no_asg, data, seg_begin, seg_len,
            options, scratch, asg_id, cancel);
        if (b == 0)
            out.run.asgIndex = part.asgIndex;
        for (auto &rec : part.flows) {
            rec.batch = b;
            out.run.flows.push_back(std::move(rec));
        }
    }
    out.batches = std::max(1u, b);
    return out;
}

} // namespace pap
