#include "workloads/trace_gen.h"

#include "common/logging.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "engine/functional_engine.h"

namespace pap {

namespace {

/**
 * The true path's active set, in the order the trace model draws
 * from: each matched state's successors in edge order, matched states
 * in list order, then the AllInput start activity (AllInput starts
 * themselves stay out, as in a start-mode engine). A state is drawn by
 * index, so this order is part of every generated trace; the
 * generator owns it instead of borrowing an engine's internal layout.
 */
class Frontier
{
  public:
    explicit Frontier(const CompiledNfa &compiled)
        : cnfa(compiled), scratch(compiled.size())
    {
        scratch.bump();
        for (const StateId q : cnfa.initialActive())
            if (!cnfa.isAllInputStart(q) && scratch.claim(q))
                active.push_back(q);
    }

    const std::vector<StateId> &states() const { return active; }

    void
    step(Symbol s)
    {
        scratch.bump();
        next.clear();
        for (const StateId q : active) {
            if (!cnfa.label(q).test(s))
                continue;
            const auto [begin, end] = cnfa.successors(q);
            for (const StateId *t = begin; t != end; ++t)
                if (!cnfa.isAllInputStart(*t) && scratch.claim(*t))
                    next.push_back(*t);
        }
        for (const StateId t : cnfa.startEnables(s))
            if (scratch.claim(t))
                next.push_back(t);
        active.swap(next);
    }

  private:
    const CompiledNfa &cnfa;
    EngineScratch scratch;
    std::vector<StateId> active;
    std::vector<StateId> next;
};

} // namespace

InputTrace
generateTrace(const Nfa &nfa, std::uint64_t len,
              const TraceGenOptions &options, std::uint64_t seed)
{
    PAP_ASSERT(!options.baseAlphabet.empty(),
               "trace generator needs a base alphabet");
    Rng rng(seed);
    CompiledNfa cnfa(nfa);
    Frontier frontier(cnfa);

    std::vector<Symbol> out(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        Symbol sym;
        if (options.separatorPeriod &&
            i % options.separatorPeriod == options.separatorPeriod - 1) {
            sym = options.separator;
        } else if (!frontier.states().empty() &&
                   rng.nextBool(options.pm)) {
            // Extend the traversal of a random active state: emit a
            // symbol its label matches, so the state fires and its
            // successors activate (depth-wise walk).
            const auto &active = frontier.states();
            const StateId q = active[rng.nextBelow(active.size())];
            const CharClass &cls = cnfa.label(q);
            const int members = cls.count();
            if (members > 0) {
                sym = cls.nthSet(
                    static_cast<int>(rng.nextBelow(members)));
            } else {
                sym = options.baseAlphabet[rng.nextBelow(
                    options.baseAlphabet.size())];
            }
        } else {
            sym = options.baseAlphabet[rng.nextBelow(
                options.baseAlphabet.size())];
        }
        out[i] = sym;
        frontier.step(sym);
    }
    return InputTrace(std::move(out));
}

std::vector<Symbol>
alphabetFromString(const std::string &chars)
{
    std::vector<Symbol> out;
    out.reserve(chars.size());
    for (const char c : chars)
        out.push_back(
            static_cast<Symbol>(static_cast<unsigned char>(c)));
    return out;
}

std::vector<Symbol>
alphabetFromRange(Symbol lo, Symbol hi)
{
    std::vector<Symbol> out;
    for (int s = lo; s <= hi; ++s)
        out.push_back(static_cast<Symbol>(s));
    return out;
}

} // namespace pap
