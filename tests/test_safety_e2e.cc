/**
 * @file
 * End-to-end safety validation — the paper's central claim, checked
 * against the ground-truth oracle at maximum activation rates:
 *
 *  - Every deterministic scheme (Mithril, Mithril+, Graphene, TWiCe,
 *    CBT) keeps every victim strictly below FlipTH under a battery of
 *    attack patterns (parameterized sweep).
 *  - The RFM-Graphene strawman FAILS exactly the way Figure 2
 *    predicts: the concentration attack drives disturbance far past
 *    what the same tracking with ARR would allow.
 *  - PARFM survives the same attacks in (seeded) practice.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/random.hh"
#include "dram/timing.hh"
#include "engine/act_stream_engine.hh"
#include "registry/scheme_registry.hh"
#include "trackers/graphene.hh"
#include "trackers/rfm_graphene.hh"

namespace mithril
{
namespace
{

enum class Pattern
{
    DoubleSided,
    MultiSided32,
    RotatingDistinct,
    RandomHot,
    SkewedZipf,
};

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::DoubleSided:      return "double-sided";
      case Pattern::MultiSided32:     return "multi-sided-32";
      case Pattern::RotatingDistinct: return "rotating-distinct";
      case Pattern::RandomHot:        return "random-hot";
      case Pattern::SkewedZipf:       return "skewed-zipf";
    }
    return "?";
}

RowId
patternRow(Pattern p, std::uint64_t i, Rng &rng)
{
    switch (p) {
      case Pattern::DoubleSided:
        return 2000 + 2 * static_cast<RowId>(i % 2);
      case Pattern::MultiSided32:
        return 2000 + 2 * static_cast<RowId>(i % 33);
      case Pattern::RotatingDistinct:
        return 2000 + 2 * static_cast<RowId>(i % 500);
      case Pattern::RandomHot:
        return 2000 + static_cast<RowId>(rng.nextBounded(256));
      case Pattern::SkewedZipf:
        return 2000 + static_cast<RowId>(rng.nextZipf(1024, 1.2));
    }
    return 0;
}

struct SafetyCase
{
    const char *scheme;
    std::uint32_t flipTh;
    Pattern pattern;
};

std::string
caseName(const ::testing::TestParamInfo<SafetyCase> &info)
{
    std::string s = std::string(info.param.scheme) + "_" +
                    std::to_string(info.param.flipTh) + "_" +
                    patternName(info.param.pattern);
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

class DeterministicSafety
    : public ::testing::TestWithParam<SafetyCase>
{
};

TEST_P(DeterministicSafety, NoVictimReachesFlipTh)
{
    const SafetyCase &tc = GetParam();
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();

    registry::SchemeKnobs knobs;
    knobs.flipTh = tc.flipTh;
    knobs.adTh = 0;  // Pure Theorem 1 configuration.
    auto tracker = registry::makeScheme(tc.scheme, knobs.toParams(),
                                        {timing, geom});
    ASSERT_NE(tracker, nullptr);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, tc.flipTh),
        tracker.get());

    Rng rng(tc.flipTh * 7 + static_cast<unsigned>(tc.pattern));
    // 1.5 refresh windows at the maximum single-bank ACT rate.
    const std::uint64_t acts =
        dram::maxActsPerWindow(timing) * 3 / 2;
    engine::CallbackSource source(acts, [&](std::uint64_t i) {
        return patternRow(tc.pattern, i, rng);
    });
    eng.run(source);

    EXPECT_EQ(eng.oracle().bitFlips(), 0u)
        << "max disturbance "
        << eng.oracle().maxDisturbanceEver();
    EXPECT_LT(eng.oracle().maxDisturbanceEver(),
              static_cast<double>(tc.flipTh));
}

std::vector<SafetyCase>
deterministicCases()
{
    std::vector<SafetyCase> cases;
    const char *const schemes[] = {
        "mithril",
        "mithril+",
        "graphene",
        "twice",
    };
    const Pattern patterns[] = {
        Pattern::DoubleSided, Pattern::MultiSided32,
        Pattern::RotatingDistinct, Pattern::RandomHot,
        Pattern::SkewedZipf,
    };
    for (auto s : schemes)
        for (std::uint32_t flip : {3125u, 6250u})
            for (auto p : patterns)
                cases.push_back({s, flip, p});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Battery, DeterministicSafety,
                         ::testing::ValuesIn(deterministicCases()),
                         caseName);

TEST(AdaptiveSafety, MithrilWithAdth200StillSafe)
{
    // Theorem 2 configurations under the hottest pattern.
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    for (std::uint32_t flip : {3125u, 6250u}) {
        registry::SchemeKnobs knobs;
        knobs.flipTh = flip;
        knobs.adTh = 200;
        auto tracker = registry::makeScheme(
            "mithril", knobs.toParams(), {timing, geom});

        engine::ActStreamEngine eng(
            engine::EngineConfig::singleBank(timing, flip),
            tracker.get());
        engine::CallbackSource source(
            dram::maxActsPerWindow(timing) * 3 / 2,
            [](std::uint64_t i) {
                return 2000 + 2 * static_cast<RowId>(i % 2);
            });
        eng.run(source);
        EXPECT_EQ(eng.oracle().bitFlips(), 0u) << flip;
    }
}

TEST(ParfmSafety, SurvivesBatteryInPractice)
{
    // Probabilistic guarantee: with the auto-derived RFM_TH the seeded
    // runs must not flip (failure probability ~1e-15).
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    registry::SchemeKnobs knobs;
    knobs.flipTh = 6250;
    auto tracker = registry::makeScheme("parfm", knobs.toParams(),
                                        {timing, geom});

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 6250),
        tracker.get());
    Rng rng(123);
    engine::CallbackSource source(
        dram::maxActsPerWindow(timing),
        [&](std::uint64_t i) {
            return patternRow(Pattern::RotatingDistinct, i,
                              rng);
        });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

TEST(RfmGrapheneFailure, ConcentrationAttackDefeatsIt)
{
    // Figure 2: the buffered strawman cannot protect a FlipTH that the
    // same tracker with ARR handles trivially. Threshold 2K, RFM_TH 64
    // -> the drain backlog lets a victim accumulate ~20K disturbances.
    const dram::Timing timing = dram::ddr5_4800();
    const std::uint32_t threshold = 2000;

    trackers::RfmGrapheneParams params;
    params.threshold = threshold;
    params.rfmTh = 64;
    params.nEntry = trackers::Graphene::requiredEntries(
        dram::maxActsPerWindow(timing), threshold);
    params.resetInterval = timing.tREFW;
    trackers::RfmGraphene tracker(1, params);

    // Would be safe under ARR-Graphene (~4T).
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 10000),
        &tracker);

    // Concentration attack: drive Q rows to the threshold round-robin
    // inside half a tREFW (so the table reset cannot save the scheme),
    // then keep hammering the last pair while the queue drains.
    const std::uint64_t q = 150;
    const std::uint64_t phase1 = q * threshold;
    engine::CallbackSource source(
        dram::maxActsPerWindow(timing),
        [&](std::uint64_t i) {
            if (i < phase1)
                return static_cast<RowId>(2000 + 2 * (i % q));
            const RowId last = static_cast<RowId>(
                2000 + 2 * (q - 1));
            return (i % 2) ? last : last - 2;
        });
    eng.run(source);

    EXPECT_GT(eng.oracle().bitFlips(), 0u)
        << "strawman unexpectedly survived; max disturbance "
        << eng.oracle().maxDisturbanceEver();
    EXPECT_GT(tracker.maxQueueDepth(), 10u);
}

TEST(RfmGrapheneFailure, MithrilSurvivesTheSameAttack)
{
    // The exact attack that defeats the strawman is harmless against
    // Mithril at the same FlipTH — the paper's motivating contrast.
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    registry::SchemeKnobs knobs;
    knobs.flipTh = 10000;
    knobs.adTh = 0;
    auto tracker = registry::makeScheme("mithril", knobs.toParams(),
                                        {timing, geom});

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 10000),
        tracker.get());
    const std::uint64_t q = 150;
    const std::uint64_t phase1 = q * 2000;
    engine::CallbackSource source(
        dram::maxActsPerWindow(timing),
        [&](std::uint64_t i) {
            if (i < phase1)
                return static_cast<RowId>(2000 + 2 * (i % q));
            const RowId last = static_cast<RowId>(
                2000 + 2 * (q - 1));
            return (i % 2) ? last : last - 2;
        });
    eng.run(source);
    EXPECT_EQ(eng.oracle().bitFlips(), 0u);
}

TEST(UnprotectedBaseline, EveryPatternFlipsBits)
{
    // Sanity: the attack battery is actually dangerous when no
    // protection is present.
    const dram::Timing timing = dram::ddr5_4800();
    for (Pattern p : {Pattern::DoubleSided, Pattern::MultiSided32}) {
        engine::ActStreamEngine eng(
            engine::EngineConfig::singleBank(timing, 6250),
            nullptr);
        Rng rng(1);
        engine::CallbackSource source(
            dram::maxActsPerWindow(timing) / 2,
            [&](std::uint64_t i) {
                return patternRow(p, i, rng);
            });
        eng.run(source);
        EXPECT_GT(eng.oracle().bitFlips(), 0u) << patternName(p);
    }
}

} // namespace
} // namespace mithril
