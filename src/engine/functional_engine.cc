#include "engine/functional_engine.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace pap {

// --- HoldIndex ----------------------------------------------------------

FunctionalEngine::HoldIndex::Slot *
FunctionalEngine::HoldIndex::find(StateId q)
{
    if (used == 0)
        return nullptr;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home(q);; i = (i + 1) & mask) {
        if (slots[i].state == q)
            return &slots[i];
        if (slots[i].state == kInvalidState)
            return nullptr;
    }
}

FunctionalEngine::HoldIndex::Slot &
FunctionalEngine::HoldIndex::insert(StateId q)
{
    if (2 * (used + 1) > slots.size()) {
        // Keep the load at most 1/2 so probe runs stay short.
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots.size()));
        old.swap(slots);
        shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
        const std::size_t mask = slots.size() - 1;
        for (const Slot &slot : old) {
            if (slot.state == kInvalidState)
                continue;
            std::size_t i = home(slot.state);
            while (slots[i].state != kInvalidState)
                i = (i + 1) & mask;
            slots[i] = slot;
        }
    }
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(q);
    while (slots[i].state != q && slots[i].state != kInvalidState)
        i = (i + 1) & mask;
    if (slots[i].state == kInvalidState) {
        slots[i].state = q;
        ++used;
    }
    return slots[i];
}

void
FunctionalEngine::HoldIndex::erase(Slot &slot)
{
    const std::size_t mask = slots.size() - 1;
    std::size_t hole = static_cast<std::size_t>(&slot - slots.data());
    for (std::size_t j = (hole + 1) & mask;
         slots[j].state != kInvalidState; j = (j + 1) & mask) {
        // The entry at j may fill the hole iff the hole lies on its
        // probe path, i.e. between its home and j (cyclically).
        const std::size_t h = home(slots[j].state);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole] = Slot{};
    --used;
}

void
FunctionalEngine::HoldIndex::clear()
{
    if (used == 0)
        return;
    std::fill(slots.begin(), slots.end(), Slot{});
    used = 0;
}

// --- FunctionalEngine ---------------------------------------------------

FunctionalEngine::FunctionalEngine(const CompiledNfa &compiled,
                                   bool starts_enabled,
                                   EngineScratch *shared_scratch)
    : cnfa(compiled), startsEnabled(starts_enabled)
{
    if (shared_scratch) {
        scratch = shared_scratch;
    } else {
        ownedScratch = std::make_unique<EngineScratch>(compiled.size());
        scratch = ownedScratch.get();
    }
}

void
FunctionalEngine::clearPersistent()
{
    held.clear();
    loops.clear();
    persistentCount = 0;
    loopReporters.clear();
    killSymbols = CharClass();
    bucketSymbols = CharClass();
    buckets.clear();
}

void
FunctionalEngine::seedTransient(const std::vector<StateId> &states)
{
    clearPersistent();
    transient.clear();
    sortedValid = false;
    scratch->bump();
    for (const StateId q : states) {
        PAP_ASSERT(q < cnfa.size(), "state ", q, " out of range");
        if (untracked(q))
            continue;
        if (scratch->claim(q))
            transient.push_back(q);
    }
}

void
FunctionalEngine::reset(const std::vector<StateId> &initial_active,
                        std::uint64_t offset_base)
{
    events.clear();
    stats = EngineCounters{};
    offsetCursor = offset_base;
    seedTransient(initial_active);
}

void
FunctionalEngine::overwriteActive(const std::vector<StateId> &vector)
{
    seedTransient(vector);
}

void
FunctionalEngine::addToBuckets(StateId q)
{
    cnfa.label(q).forEach([&](Symbol c) {
        const auto at = buckets.begin() + bucketSymbols.rank(c);
        if (!bucketSymbols.test(c)) {
            bucketSymbols.set(c);
            buckets.emplace(at)->push_back(q);
        } else {
            at->push_back(q);
        }
    });
}

void
FunctionalEngine::removeFromBuckets(StateId q)
{
    cnfa.label(q).forEach([&](Symbol c) {
        const auto at = buckets.begin() + bucketSymbols.rank(c);
        auto &bucket = *at;
        *std::find(bucket.begin(), bucket.end(), q) = bucket.back();
        bucket.pop_back();
        if (bucket.empty()) {
            bucketSymbols.reset(c);
            buckets.erase(at);
        }
    });
}

inline std::uint64_t
FunctionalEngine::enableSuccessors(StateId q, EngineScratch &sc,
                                   bool may_hold)
{
    ++stats.succRows;
    const auto [begin, end] = cnfa.successors(q);
    for (const StateId *t = begin; t != end; ++t)
        if (!untracked(*t))
            enable(*t, sc, may_hold);
    return static_cast<std::uint64_t>(end - begin);
}

inline std::uint64_t
FunctionalEngine::fire(StateId q, EngineScratch &sc)
{
    ++stats.matches;
    if (cnfa.reporting(q))
        events.push_back(ReportEvent{offsetCursor, q, cnfa.reportCode(q)});
    if (cnfa.feedsHoldable(q)) {
        // A self-loop state, or one whose successors may be held:
        // handled once this step's hold-index changes are known.
        if (cnfa.selfLoop(q))
            sc.promoted.push_back(q);
        else
            sc.fired.push_back(q);
        return 0;
    }
    return enableSuccessors(q, sc, /*may_hold=*/false);
}

std::uint64_t
FunctionalEngine::killPersistent(Symbol s, std::vector<StateId> &dying)
{
    // Rebuild the kill mask from the groups that survive s.
    killSymbols = CharClass();
    const std::size_t tested = loops.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < tested; ++i) {
        const CharClass &label = cnfa.loopLabel(loops[i].group);
        if (label.test(s)) {
            killSymbols |= label.complement();
            if (kept != i)
                loops[kept] = std::move(loops[i]);
            ++kept;
            continue;
        }
        for (const StateId q : loops[i].states) {
            stats.bytesTouched += kLookupBytes;
            HoldIndex::Slot *slot = held.find(q);
            slot->persistent = false;
            if (slot->holders == 0)
                held.erase(*slot);
            dying.push_back(q);
        }
        persistentCount -= loops[i].states.size();
    }
    loops.resize(kept);
    std::erase_if(loopReporters, [&](StateId q) {
        return !cnfa.label(q).test(s);
    });
    return tested;
}

void
FunctionalEngine::promote(StateId q)
{
    stats.bytesTouched += kLookupBytes;
    held.insert(q).persistent = true;
    ++persistentCount;
    const std::uint32_t group = cnfa.loopGroup(q);
    auto set = std::find_if(loops.begin(), loops.end(),
                            [&](const LoopSet &l) { return l.group == group; });
    if (set == loops.end()) {
        set = loops.insert(loops.end(), LoopSet{group, {}});
        killSymbols |= cnfa.loopLabel(group).complement();
    }
    set->states.push_back(q);
    if (cnfa.reporting(q))
        loopReporters.push_back(q);

    ++stats.succRows;
    const auto [begin, end] = cnfa.successors(q);
    stats.bytesTouched += 4ull * static_cast<std::uint64_t>(end - begin);
    for (const StateId *t = begin; t != end; ++t) {
        if (*t == q || untracked(*t))
            continue;
        stats.bytesTouched += kLookupBytes;
        if (held.insert(*t).holders++ == 0)
            addToBuckets(*t);
    }
}

void
FunctionalEngine::releaseHeld(StateId q)
{
    ++stats.succRows;
    const auto [begin, end] = cnfa.successors(q);
    stats.bytesTouched += 4ull * static_cast<std::uint64_t>(end - begin);
    for (const StateId *t = begin; t != end; ++t) {
        if (*t == q || untracked(*t))
            continue;
        stats.bytesTouched += kLookupBytes;
        HoldIndex::Slot *slot = held.find(*t);
        if (--slot->holders != 0)
            continue;
        if (!slot->persistent)
            held.erase(*slot);
        removeFromBuckets(*t);
    }
}

bool
FunctionalEngine::isHeld(StateId t)
{
    stats.bytesTouched += kLookupBytes;
    return held.find(t) != nullptr;
}

void
FunctionalEngine::step(Symbol s)
{
    EngineScratch &sc = *scratch;
    sc.bump();
    next.clear();
    sortedValid = false;
    std::uint64_t labels = transient.size();
    std::uint64_t ids = transient.size();
    std::uint64_t edges = 0;

    if (!held.empty()) {
        // 1. Persistent states all match s, except the groups s kills.
        if (killSymbols.test(s))
            labels += killPersistent(s, sc.dying);
        stats.matches += persistentCount;
        for (const StateId q : loopReporters)
            events.push_back(
                ReportEvent{offsetCursor, q, cnfa.reportCode(q)});

        // 2a. Held states in the bucket of s match; a persistent one
        // was counted above.
        if (bucketSymbols.test(s)) {
            const auto &bucket = buckets[bucketSymbols.rank(s)];
            ids += bucket.size();
            for (const StateId q : bucket) {
                if (cnfa.selfLoop(q)) {
                    stats.bytesTouched += kLookupBytes;
                    if (held.find(q)->persistent)
                        continue;
                }
                edges += fire(q, sc);
            }
        }
    }
    // 2b. The transient states, label by label.
    for (const StateId q : transient)
        if (cnfa.label(q).test(s))
            edges += fire(q, sc);

    if (!sc.promoted.empty() || !sc.dying.empty() || !sc.fired.empty()) {
        // 3. Matched self-loop states become persistent and hold their
        // successors; killed ones let go of theirs.
        for (const StateId q : sc.promoted)
            promote(q);
        for (const StateId q : sc.dying)
            releaseHeld(q);
        // 4. Successors of the other matched states that may be held.
        for (const StateId q : sc.fired)
            edges += enableSuccessors(q, sc, !held.empty());
        sc.promoted.clear();
        sc.dying.clear();
        sc.fired.clear();
    }
    if (startsEnabled) {
        stats.matches += cnfa.startMatchCount(s);
        for (const auto &sr : cnfa.startReports(s))
            events.push_back(ReportEvent{offsetCursor, sr.state,
                                         sr.code});
        const bool may_hold =
            !held.empty() && cnfa.startFeedsHoldable(s);
        for (const StateId t : cnfa.startEnables(s))
            enable(t, sc, may_hold);
    }
    transient.swap(next);

    // Datapath cost (hold-index lookups are charged where they
    // happen): traffic proportional to the activity that changes, not
    // to the persistent states it leaves alone.
    stats.maskWords += labels;
    stats.bytesTouched += 32ull * labels + 4ull * (ids + edges);
    const std::size_t active = activeCount();
    stats.enables += active;
    ++stats.densityOctiles[densityOctile(active, cnfa.size())];
    ++stats.symbols;
    ++offsetCursor;
}

void
FunctionalEngine::run(const Symbol *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        step(data[i]);
}

const std::vector<StateId> &
FunctionalEngine::sortedActive() const
{
    if (!sortedValid) {
        sortedCache = transient;
        held.forEach([&](StateId q) { sortedCache.push_back(q); });
        std::sort(sortedCache.begin(), sortedCache.end());
        sortedValid = true;
    }
    return sortedCache;
}

std::vector<StateId>
FunctionalEngine::snapshot() const
{
    return sortedActive();
}

std::uint64_t
FunctionalEngine::stateHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const StateId q : sortedActive()) {
        h ^= q;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
FunctionalEngine::sameActiveSet(const FunctionalEngine &other) const
{
    return other.activeCount() == activeCount() &&
           sortedActive() == other.sortedActive();
}

std::vector<ReportEvent>
FunctionalEngine::takeReports()
{
    std::vector<ReportEvent> out;
    out.swap(events);
    return out;
}

} // namespace pap
