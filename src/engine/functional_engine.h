/**
 * @file
 * Sparse-active-set NFA interpreter, the execution engine of every
 * run. One engine instance corresponds to one AP execution context
 * (one flow): it owns an active-state set, consumes symbols, and
 * produces report events. Start-state machinery can be disabled for
 * enumeration flows, whose spontaneous-start activity is carried by
 * the Active State Group flow instead (Section 3.3.2 of the paper).
 *
 * The engine carries the Active State Group idea down to a flow's own
 * always-on states. A self-loop state that matched the last symbol is
 * *persistent*: it stays active, and keeps its successors (the states
 * it *holds*) active, until a symbol outside its label kills it. The
 * persistent states live in one set per self-loop label group, the
 * held states, reference-counted by their holders, in per-symbol
 * match buckets, and everything else in a short transient list. A
 * step costs the kill check, the bucket of its symbol and the
 * transient list, not the whole active set.
 *
 * snapshot() returns the active set sorted ascending and stateHash()
 * is the FNV-1a hash of that sorted list, so FIVs, convergence checks
 * and checkpoint files depend only on the set, never on its layout.
 */

#ifndef PAP_ENG_FUNCTIONAL_ENGINE_H
#define PAP_ENG_FUNCTIONAL_ENGINE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/compiled_nfa.h"
#include "engine/report.h"

namespace pap {

/**
 * Counters an engine accumulates while running. Recording is O(1)
 * per step (a handful of adds folded into work the step does anyway),
 * so they stay on in every build.
 */
struct EngineCounters
{
    /** Symbols consumed. */
    std::uint64_t symbols = 0;
    /** State matches (equals AP state transitions triggered). */
    std::uint64_t matches = 0;
    /** States enabled (with duplicates removed per cycle). */
    std::uint64_t enables = 0;

    // --- Datapath introspection (host cost estimates) ---
    /** Successor edge lists walked: for matched transient and held
     *  states, and for self-loop states made or killed persistent. */
    std::uint64_t succRows = 0;
    /** Label bitmaps tested: one per transient state scanned and one
     *  per persistent group checked on a kill symbol. */
    std::uint64_t maskWords = 0;
    /** Estimated bytes read: 32 per label tested, 4 per state id read
     *  (transient list, match bucket, successor list) and 8 per
     *  hold-index lookup. */
    std::uint64_t bytesTouched = 0;
    /** Histogram of per-step active density: octile k counts steps
     *  with active/states in [k/8, (k+1)/8). */
    std::array<std::uint64_t, 8> densityOctiles{};
};

/** Octile index (0..7) for @p active_states of @p total states. */
inline std::size_t
densityOctile(std::size_t active_states, std::size_t total)
{
    if (total == 0)
        return 0;
    const std::size_t k = active_states * 8 / total;
    return k < 7 ? k : 7;
}

/**
 * Per-cycle duplicate-suppression scratch and step work lists. It is
 * O(states) in size, so when hundreds of engines (flows) run over the
 * same automaton they should share one instance; sharing is safe
 * because the scratch is only used inside a single step() call.
 */
class EngineScratch
{
  public:
    /** Size for an automaton of @p states states. */
    explicit EngineScratch(std::size_t states) : mark(states, 0) {}

    /** Start a new deduplication generation. */
    void
    bump()
    {
        if (++epoch == 0) {
            std::fill(mark.begin(), mark.end(), 0);
            epoch = 1;
        }
    }

    /** True the first time @p q is claimed in this generation. */
    bool
    claim(StateId q)
    {
        if (mark[q] == epoch)
            return false;
        mark[q] = epoch;
        return true;
    }

  private:
    friend class FunctionalEngine;

    std::vector<std::uint32_t> mark;
    std::uint32_t epoch = 0;
    /** Matched states without a self-loop whose successors may be
     *  held (enabled once the hold index is up to date). */
    std::vector<StateId> fired;
    /** Matched self-loop states that become persistent. */
    std::vector<StateId> promoted;
    /** Persistent states the symbol killed. */
    std::vector<StateId> dying;
};

/** One execution context over a CompiledNfa. */
class FunctionalEngine
{
  public:
    /**
     * @param cnfa compiled automaton (must outlive the engine).
     * @param starts_enabled when true, StartOfData states are enabled
     *        before the first symbol and AllInput states before every
     *        symbol; when false the engine runs only the activity of
     *        the explicitly seeded states (enumeration-flow mode).
     * @param scratch shared dedup scratch; if null the engine owns one.
     */
    FunctionalEngine(const CompiledNfa &cnfa, bool starts_enabled,
                     EngineScratch *scratch = nullptr);

    /**
     * Clear all state and seed the active set. AllInput starts in the
     * seed are dropped when start machinery is live (they would be
     * double-processed). @p offset_base is the absolute input offset
     * of the next symbol (for report events).
     */
    void reset(const std::vector<StateId> &initial_active,
               std::uint64_t offset_base = 0);

    /**
     * Replace the active set without touching the cursor, counters,
     * or accumulated reports — the state-vector overwrite a context
     * switch performs when reloading (or mis-reloading) an SVC entry.
     * Applies the same AllInput-start filtering as reset().
     */
    void overwriteActive(const std::vector<StateId> &vector);

    /** Consume one symbol. */
    void step(Symbol s);

    /** Consume @p len symbols from @p data. */
    void run(const Symbol *data, std::size_t len);

    /** True if the active set is empty (the flow is unproductive). */
    bool dead() const { return transient.empty() && held.empty(); }

    /** Number of currently active states. */
    std::size_t activeCount() const
    {
        return transient.size() + held.size();
    }

    /** Sorted copy of the active set (the flow's state vector). */
    std::vector<StateId> snapshot() const;

    /** Order-independent 64-bit hash of the active set. */
    std::uint64_t stateHash() const;

    /** True iff this engine's active set equals @p other's (the SVC
     *  convergence comparator). */
    bool sameActiveSet(const FunctionalEngine &other) const;

    /** Absolute offset of the next symbol to be consumed. */
    std::uint64_t cursor() const { return offsetCursor; }

    /** Events produced so far (unsorted, in emission order). */
    const std::vector<ReportEvent> &reports() const { return events; }

    /** Move the accumulated events out (clears the internal buffer). */
    std::vector<ReportEvent> takeReports();

    /** Performance counters. */
    const EngineCounters &counters() const { return stats; }

    /** The active set in no promised order (for sampling); built on
     *  demand and cached until the next mutation. */
    const std::vector<StateId> &activeRaw() const { return sortedActive(); }

    /** The compiled automaton this engine runs. */
    const CompiledNfa &automaton() const { return cnfa; }

  private:
    /**
     * Open-addressed map from each persistent or held state to its
     * slot, sized by those states alone (it allocates nothing while
     * they are absent, as in an automaton without self-loops).
     */
    class HoldIndex
    {
      public:
        struct Slot
        {
            StateId state = kInvalidState;
            /** Persistent states whose successors include this one. */
            std::uint32_t holders = 0;
            /** A self-loop state that matched the last symbol. */
            bool persistent = false;
        };

        std::size_t size() const { return used; }
        bool empty() const { return used == 0; }
        /** The slot of @p q, or null. */
        Slot *find(StateId q);
        /** The slot of @p q, added empty if absent. May rehash, which
         *  invalidates earlier slot pointers. */
        Slot &insert(StateId q);
        /** Remove @p slot (backward-shift deletion). */
        void erase(Slot &slot);
        void clear();

        /** Call @p fn(StateId) for every state in the index. */
        template <typename Fn>
        void
        forEach(Fn &&fn) const
        {
            for (const Slot &slot : slots)
                if (slot.state != kInvalidState)
                    fn(slot.state);
        }

      private:
        std::size_t home(StateId q) const
        {
            return static_cast<std::size_t>(
                (q * 0x9e3779b97f4a7c15ull) >> shift);
        }

        std::vector<Slot> slots;
        std::size_t used = 0;
        unsigned shift = 64;
    };

    /** The persistent states of one self-loop group. */
    struct LoopSet
    {
        std::uint32_t group = 0;
        std::vector<StateId> states;
    };

    /** Drop every persistent and held state (reset, overwrite). */
    void clearPersistent();
    /** Seed the transient list with @p states, filtered and deduped. */
    void seedTransient(const std::vector<StateId> &states);
    /** Matched state @p q: report, then enable its successors (now,
     *  or after the hold index is updated when one may be held).
     *  Returns the successor ids walked now. */
    std::uint64_t fire(StateId q, EngineScratch &sc);
    /** Enable every tracked successor of @p q for the next symbol
     *  (see enable() for @p may_hold); returns the ids walked. */
    std::uint64_t enableSuccessors(StateId q, EngineScratch &sc,
                                   bool may_hold);
    /** Kill the persistent groups whose label lacks @p s into
     *  @p dying; returns the number of group labels tested. */
    std::uint64_t killPersistent(Symbol s, std::vector<StateId> &dying);
    /** Make matched self-loop state @p q persistent. */
    void promote(StateId q);
    /** Release the states persistent @p q held (q was killed). */
    void releaseHeld(StateId q);
    /** Enable @p t for the next symbol unless already active; only
     *  when @p may_hold can t be persistent or held already. Inline:
     *  it runs once per successor edge walked. */
    void
    enable(StateId t, EngineScratch &sc, bool may_hold)
    {
        if (may_hold && cnfa.holdable(t) && isHeld(t))
            return;
        if (sc.claim(t))
            next.push_back(t);
    }
    /** True if @p t is persistent or held (one hold-index lookup). */
    bool isHeld(StateId t);
    /** bytesTouched charged per hold-index lookup. */
    static constexpr std::uint64_t kLookupBytes = 8;
    /** True if the engine keeps @p q out of its active set: an
     *  AllInput start while start machinery is live (the start fold
     *  re-enables it every cycle). */
    bool untracked(StateId q) const
    {
        return startsEnabled && cnfa.isAllInputStart(q);
    }
    void addToBuckets(StateId q);
    void removeFromBuckets(StateId q);

    /**
     * Sorted view of the active set, computed lazily and cached until
     * the next mutation, so convergence checks (which call snapshot /
     * stateHash / sameActiveSet on an unchanged engine many times per
     * round) sort each active set at most once.
     */
    const std::vector<StateId> &sortedActive() const;

    const CompiledNfa &cnfa;
    const bool startsEnabled;
    std::unique_ptr<EngineScratch> ownedScratch;
    EngineScratch *scratch;
    /** Active states outside the hold index, and the list the next
     *  step builds (per engine, so each stays sized by this engine's
     *  own activity). */
    std::vector<StateId> transient;
    std::vector<StateId> next;
    /** Persistent states and the states they hold. */
    HoldIndex held;
    /** Persistent states by self-loop group. */
    std::vector<LoopSet> loops;
    std::size_t persistentCount = 0;
    /** Persistent states that report on every symbol they survive. */
    std::vector<StateId> loopReporters;
    /** Symbols that kill at least one group in @c loops. */
    CharClass killSymbols;
    /** Match buckets: buckets[bucketSymbols.rank(s)] lists the held
     *  states whose label holds s, for each symbol s in
     *  bucketSymbols (the symbols with a non-empty bucket). */
    CharClass bucketSymbols;
    std::vector<std::vector<StateId>> buckets;
    mutable std::vector<StateId> sortedCache;
    mutable bool sortedValid = false;
    std::uint64_t offsetCursor = 0;
    std::vector<ReportEvent> events;
    EngineCounters stats;
};

} // namespace pap

#endif // PAP_ENG_FUNCTIONAL_ENGINE_H
