/**
 * @file
 * The benchmark's own tests: the tail-percentile rule, reproducible
 * arrival schedules, the metric catalogue against BENCHMARK.json, and
 * failure accounting under an injected fault.
 *
 *   cmake --build .bench_build --target repobench_tests
 *   .bench_build/repobench_tests
 */

#include <fstream>
#include <gtest/gtest.h>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>

#include "bench_util.h"
#include "pap/fault_injector.h"
#include "workloads.h"

using namespace repobench;

namespace {

/** Most metrics one list may hold. */
constexpr std::size_t kMaxEndToEnd = 16;
constexpr std::size_t kMaxPerLayer = 128;

/** Fewest samples for which percentile(q) is resolved. */
std::size_t
minSamplesFor(double q)
{
    std::size_t n = 1;
    while (!percentile(std::vector<double>(n, 0.0), q).resolved)
        ++n;
    return n;
}

/** Starts with a letter or digit; at most 64 of [A-Za-z0-9_.-]. */
bool
validMetricName(const std::string &name)
{
    static const std::regex valid("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    return std::regex_match(name, valid);
}

} // namespace

TEST(Percentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(minSamplesFor(0.95), 200u);
    EXPECT_EQ(minSamplesFor(0.50), 20u);

    std::vector<double> v(200);
    std::iota(v.begin(), v.end(), 1.0); // 1..200
    const Percentile p95 = percentile(v, 0.95);
    EXPECT_NEAR(p95.value, 190.0, 0.1);
    EXPECT_EQ(p95.beyond, 10u);
    EXPECT_TRUE(p95.resolved);

    v.pop_back(); // 199 samples leave only 9 beyond p95
    const Percentile short95 = percentile(v, 0.95);
    EXPECT_EQ(short95.beyond, 9u);
    EXPECT_FALSE(short95.resolved);

    EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 0.5).value, 3.0);
    EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0}, 1.0).value, 5.0);
    EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Arrivals, ReproducibleFromSeed)
{
    const auto a = poissonSchedule(40.0, 2000, 7);
    const auto b = poissonSchedule(40.0, 2000, 7);
    const auto c = poissonSchedule(40.0, 2000, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_EQ(a.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GT(a.front(), 0.0);
    // 2000 arrivals at 40/s span about 50 s.
    EXPECT_NEAR(a.back(), 50.0, 5.0);

    EXPECT_EQ(deriveSeed(3, "arrivals:light"),
              deriveSeed(3, "arrivals:light"));
    EXPECT_NE(deriveSeed(3, "arrivals:light"),
              deriveSeed(3, "arrivals:heavy"));
    EXPECT_NE(deriveSeed(3, "stream", 0), deriveSeed(3, "stream", 1));
}

namespace {

/** The names listed under @p key in BENCHMARK.json, in order. */
std::vector<std::string>
declaredNames(const std::string &json, const std::string &key)
{
    const auto start = json.find("\"" + key + "\"");
    const auto open = json.find('[', start);
    const auto close = json.find(']', open);
    const std::string list = json.substr(open, close - open);
    static const std::regex name("\"name\"\\s*:\\s*\"([^\"]*)\"");
    std::vector<std::string> names;
    for (auto it = std::sregex_iterator(list.begin(), list.end(), name);
         it != std::sregex_iterator(); ++it)
        names.push_back((*it)[1]);
    return names;
}

std::vector<std::string>
namesOf(const std::vector<MetricDef> &defs)
{
    std::vector<std::string> names;
    for (const MetricDef &m : defs)
        names.push_back(m.name);
    return names;
}

} // namespace

TEST(Metrics, NamesValidAndWithinLimits)
{
    EXPECT_LE(endToEndMetrics().size(), kMaxEndToEnd);
    EXPECT_LE(perLayerMetrics().size(), kMaxPerLayer);
    std::set<std::string> seen;
    static const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &m : *list) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
        }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(Metrics, CatalogueMatchesBenchmarkJson)
{
    std::ifstream in(REPOBENCH_JSON);
    ASSERT_TRUE(in) << REPOBENCH_JSON;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    EXPECT_EQ(declaredNames(json, "end_to_end"), namesOf(endToEndMetrics()));
    EXPECT_EQ(declaredNames(json, "per_layer"), namesOf(perLayerMetrics()));
}

TEST(Metrics, ResultJsonRefusesMissingMetric)
{
    Outcome o;
    o.attempted = 1;
    std::string error;
    EXPECT_TRUE(resultJson(o, false, &error).empty());
    EXPECT_NE(error.find("setup_s"), std::string::npos);
    for (const MetricDef &m : endToEndMetrics())
        o.metrics[m.name] = 1.5;
    const std::string line = resultJson(o, false, &error);
    EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 1, "
                         "\"failed\": 0, \"metrics\": {",
                         0),
              0u);
}

TEST(Failures, DroppedReportCountsAsFailed)
{
    auto injector = pap::FaultInjector::fromSpec("drop-report:32", 11);
    ASSERT_TRUE(injector.ok());
    RunConfig config;
    config.seconds = 0.0;
    config.minPasses = 1;
    config.setupReps = 1;
    config.baseTraceLen = 16u << 10;
    config.faults = &injector.value();
    const Outcome out = runTable1(config, {"EntityResolution", "Bro217"});
    EXPECT_EQ(out.attempted, 2u);
    EXPECT_GE(out.failed, 1u);
    EXPECT_GT(out.metrics.at("failed_frac"), 0.0);
    // runPap repairs the run from its oracle, so the reports still
    // match: a failure, not a mismatch.
    EXPECT_TRUE(out.correct);

    RunConfig clean = config;
    clean.faults = nullptr;
    const Outcome ok = runTable1(clean, {"EntityResolution", "Bro217"});
    EXPECT_EQ(ok.failed, 0u);
    EXPECT_EQ(ok.metrics.at("failed_frac"), 0.0);
}
