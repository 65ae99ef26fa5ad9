/**
 * @file
 * Simulated-outcome golden: every registered scheme on one tiny
 * System run and one tiny engine run, every RunMetrics field printed
 * at %.17g into tests/golden/outcomes_v1.txt. A speed-only change
 * (data layout, hashing, batching) must leave that file byte-identical.
 * Regenerate it, for an intended model change only, with:
 *   MITHRIL_UPDATE_GOLDEN=1 ./test_outcomes
 */

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "registry/scheme_registry.hh"
#include "sim/experiment.hh"

namespace mithril::sim
{
namespace
{

__attribute__((format(printf, 2, 3))) void
appendLine(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out += buf;
    out += '\n';
}

void
appendMetrics(std::string &out, const std::string &label,
              const RunMetrics &m)
{
    appendLine(out, "[%s]", label.c_str());
    appendLine(out, "aggIpc %.17g", m.aggIpc);
    appendLine(out, "energyPj %.17g", m.energyPj);
    appendLine(out, "simTicks %" PRId64, m.simTicks);
    appendLine(out, "acts %" PRIu64, m.acts);
    appendLine(out, "reads %" PRIu64, m.reads);
    appendLine(out, "writes %" PRIu64, m.writes);
    appendLine(out, "rfmIssued %" PRIu64, m.rfmIssued);
    appendLine(out, "rfmSkippedMrr %" PRIu64, m.rfmSkippedMrr);
    appendLine(out, "arrExecuted %" PRIu64, m.arrExecuted);
    appendLine(out, "preventiveRefreshes %" PRIu64,
               m.preventiveRefreshes);
    appendLine(out, "throttleStalls %" PRIu64, m.throttleStalls);
    appendLine(out, "maxDisturbance %.17g", m.maxDisturbance);
    appendLine(out, "bitFlips %" PRIu64, m.bitFlips);
    appendLine(out, "avgReadLatencyNs %.17g", m.avgReadLatencyNs);
    appendLine(out, "p95ReadLatencyNs %.17g", m.p95ReadLatencyNs);
    appendLine(out, "trackerBytesPerBank %.17g", m.trackerBytesPerBank);
    for (const auto &[name, value] : m.telemetry)
        appendLine(out, "telemetry.%s %.17g", name.c_str(), value);
}

/** One benign core beside a multi-sided attacker. */
ExperimentSpec
systemRun(const std::string &scheme)
{
    ExperimentSpec spec;
    spec.scheme = scheme;
    spec.workload = "mix-high";
    spec.attack = "multi-sided";
    spec.flipTh = 1500;
    spec.cores = 2;
    spec.instrPerCore = 20000;
    return spec;
}

/** A 200K-ACT multi-sided attack through the sharded engine. Four
 *  victims per bank concentrate the hammering so the unprotected
 *  baseline flips bits; telemetry pins the oracle's flipped-row count
 *  as well. */
ExperimentSpec
engineRun(const std::string &scheme)
{
    ExperimentSpec spec;
    spec.scheme = scheme;
    spec.source = "attack";
    spec.attack = "multi-sided";
    spec.flipTh = 1500;
    spec.engineActs = 200000;
    spec.extras.set("victims", "4");
    spec.telemetry = true;
    return spec;
}

TEST(Outcomes, GoldenFile)
{
    std::string artifact =
        "# every registered scheme, every RunMetrics field at %.17g\n";
    for (const std::string &scheme : registry::schemeRegistry().names()) {
        appendMetrics(artifact, "system " + scheme,
                      runExperiment(systemRun(scheme)));
        appendMetrics(artifact, "engine " + scheme,
                      runExperiment(engineRun(scheme)));
    }

    const std::string golden_path =
        std::string(MITHRIL_SOURCE_DIR) + "/tests/golden/outcomes_v1.txt";
    if (std::getenv("MITHRIL_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(golden_path);
        out << artifact;
        GTEST_SKIP() << "regenerated " << golden_path;
    }
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(artifact, buffer.str());
}

} // namespace
} // namespace mithril::sim
