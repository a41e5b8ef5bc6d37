/**
 * @file
 * Shared helpers for tests: random automata, random traces, and
 * per-test temp paths.
 */

#ifndef PAP_TESTS_WORKLOAD_HELPERS_H
#define PAP_TESTS_WORKLOAD_HELPERS_H

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "nfa/nfa.h"

namespace pap {

/**
 * A path under the gtest temp dir unique to the running test and
 * process: ctest -j runs every test case as its own process, so two
 * cases sharing a fixed file name would overwrite each other's file.
 */
inline std::string
uniqueTempPath(const std::string &stem)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test = std::string(info->test_suite_name()) + "." +
                       info->name();
    // Parameterized names carry '/'.
    std::replace(test.begin(), test.end(), '/', '_');
    return ::testing::TempDir() + "papsim_" + stem + "_" + test + "_" +
           std::to_string(::getpid());
}

/** A trace of random symbols drawn from @p alphabet. */
inline InputTrace
randomTextTrace(Rng &rng, std::size_t len, const std::string &alphabet)
{
    std::vector<Symbol> data(len);
    for (auto &s : data)
        s = static_cast<Symbol>(static_cast<unsigned char>(
            alphabet[rng.nextBelow(alphabet.size())]));
    return InputTrace(std::move(data));
}

/** A random regex pattern over a small alphabet. */
inline std::string
randomPattern(Rng &rng)
{
    static const char *atoms[] = {"a",  "b",   "c",    "d",    "e",
                                  "f",  "g",   "h",    ".",    "[ab]",
                                  "[c-f]", "[^ab]", "(ab|cd)", "\\n"};
    static const char *quants[] = {"", "", "", "*", "+", "?", "{1,3}"};
    std::string out;
    const int parts = 2 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < parts; ++i) {
        out += atoms[rng.nextBelow(std::size(atoms))];
        out += quants[rng.nextBelow(std::size(quants))];
    }
    return out;
}

/** A random multi-rule automaton. */
inline Nfa
randomNfa(Rng &rng, int max_patterns)
{
    std::vector<RegexRule> rules;
    const int n = 1 + static_cast<int>(rng.nextBelow(max_patterns));
    for (int i = 0; i < n; ++i)
        rules.push_back(RegexRule{randomPattern(rng),
                                  static_cast<ReportCode>(i),
                                  rng.nextBool(0.2)});
    return compileRuleset(rules, "random");
}

} // namespace pap

#endif // PAP_TESTS_WORKLOAD_HELPERS_H
