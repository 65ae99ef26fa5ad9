/**
 * @file
 * Unit tests for the common utilities: RNG, stats, histogram, table
 * printer, parameter set, logging, time conversion and the page
 * allocator.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/page_allocator.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"

namespace mithril
{
namespace
{

TEST(Types, TickConversionRoundTrip)
{
    EXPECT_EQ(nsToTick(1.0), 1000);
    EXPECT_EQ(usToTick(1.0), 1000000);
    EXPECT_EQ(msToTick(1.0), 1000000000);
    EXPECT_DOUBLE_EQ(tickToNs(nsToTick(48.64)), 48.64);
    EXPECT_DOUBLE_EQ(tickToMs(msToTick(32.0)), 32.0);
}

TEST(Types, FractionalNanoseconds)
{
    // DDR5-4800 tCK = 416.67ps must not collapse to zero.
    EXPECT_GT(nsToTick(1.0 / 2.4), 0);
    EXPECT_NEAR(tickToNs(nsToTick(0.417)), 0.417, 0.001);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 2000; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedZeroReturnsZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(11);
    constexpr std::uint64_t kBuckets = 8;
    constexpr int kSamples = 80000;
    std::array<int, kBuckets> counts{};
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.nextBounded(kBuckets)];
    for (int c : counts) {
        EXPECT_NEAR(c, kSamples / kBuckets,
                    0.1 * kSamples / kBuckets);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoolRespectsProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(23);
    for (double mean : {2.0, 8.0, 28.0}) {
        double sum = 0.0;
        constexpr int kSamples = 60000;
        for (int i = 0; i < kSamples; ++i)
            sum += static_cast<double>(rng.nextGeometric(mean));
        EXPECT_NEAR(sum / kSamples, mean, mean * 0.05);
    }
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng rng(29);
    EXPECT_EQ(rng.nextGeometric(0.5), 1u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextGeometric(3.0), 1u);
}

TEST(Rng, ZipfSkewsTowardSmallValues)
{
    Rng rng(31);
    constexpr std::uint64_t kN = 1000;
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i) {
        const auto v = rng.nextZipf(kN, 0.9);
        EXPECT_LT(v, kN);
        low += (v < kN / 10);
    }
    // With s=0.9, far more than 10% of the mass is in the lowest decile.
    EXPECT_GT(low, total / 3);
}

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    Average a;
    a.sample(2.0);
    a.sample(6.0);
    a.sample(4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.minValue(), 2.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 6.0);
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_EQ(h.totalSamples(), 100u);
    EXPECT_EQ(h.bucketValue(0), 10u);
    EXPECT_NEAR(h.mean(), 50.0, 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
    EXPECT_NEAR(h.percentile(0.99), 100.0, 10.0);
}

TEST(Histogram, OverflowUnderflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0);
    h.sample(100.0, 3);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.totalSamples(), 4u);
}

TEST(PageAllocator, BacksAVectorWithItsOwnPages)
{
    std::vector<std::uint64_t, PageAllocator<std::uint64_t>> v(
        100000, 7);
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % page, 0u);
    v.back() = 9;
    auto copy = v;
    EXPECT_NE(copy.data(), v.data());
    EXPECT_EQ(copy, v);
    v.assign(3, 1);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(copy.back(), 9u);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"name", "value"});
    t.beginRow().cell("alpha").num(1.5, 2);
    t.beginRow().cell("b").intCell(42);
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TablePrinter, FormatHelpers)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatKiB(2048.0, 1), "2.0 KB");
}

TEST(ParamSet, ParsesKeyValuesAndPositional)
{
    const char *argv[] = {"prog", "a=1", "b=2.5", "pos", "c=yes"};
    auto p = ParamSet::fromArgs(5, argv);
    EXPECT_EQ(p.getInt("a"), 1);
    EXPECT_DOUBLE_EQ(p.getDouble("b"), 2.5);
    EXPECT_TRUE(p.getBool("c"));
    EXPECT_EQ(p.positional().size(), 1u);
    EXPECT_EQ(p.positional()[0], "pos");
    EXPECT_EQ(p.getInt("missing", 9), 9);
    EXPECT_TRUE(p.has("a"));
    EXPECT_FALSE(p.has("z"));
}

TEST(ParamSet, Uint32RangeCheck)
{
    ParamSet p;
    p.set("ok", "4294967295");
    EXPECT_EQ(p.getUint32("ok"), 0xffffffffu);
    EXPECT_EQ(p.getUint32("missing", 7), 7u);
    setLogThrowOnFatal(true);
    p.set("big", "4294967296");
    EXPECT_THROW(p.getUint32("big"), std::runtime_error);
    setLogThrowOnFatal(false);
}

TEST(ParamSet, ListAccessors)
{
    ParamSet p;
    p.set("names", "alpha, beta ,gamma");
    p.set("nums", "1,0x10, 42");
    p.set("empty", "");
    const auto names = p.getStringList("names");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "beta");
    EXPECT_EQ(names[2], "gamma");
    const auto nums = p.getUintList("nums");
    ASSERT_EQ(nums.size(), 3u);
    EXPECT_EQ(nums[0], 1u);
    EXPECT_EQ(nums[1], 16u);
    EXPECT_EQ(nums[2], 42u);
    EXPECT_TRUE(p.getStringList("empty").empty());
    EXPECT_TRUE(p.getUintList("missing").empty());
}

TEST(ParamSet, MalformedListEntryIsFatal)
{
    setLogThrowOnFatal(true);
    ParamSet p;
    p.set("nums", "1,two,3");
    EXPECT_THROW(p.getUintList("nums"), std::runtime_error);
    // strtoull would silently wrap a negative; it must be fatal.
    p.set("nums", "-1");
    EXPECT_THROW(p.getUintList("nums"), std::runtime_error);
    setLogThrowOnFatal(false);
}

TEST(ParamSet, DuplicateKeyIsFatal)
{
    setLogThrowOnFatal(true);
    const char *argv[] = {"prog", "a=1", "b=2", "a=3"};
    EXPECT_THROW(ParamSet::fromArgs(4, argv), std::runtime_error);
    EXPECT_THROW(ParamSet::fromString("x=1 x=2"),
                 std::runtime_error);
    setLogThrowOnFatal(false);
}

TEST(ParamSet, FromStringSplitsOnWhitespace)
{
    const auto p = ParamSet::fromString("a=1  b=two\npos c=0.5");
    EXPECT_EQ(p.getUint("a"), 1u);
    EXPECT_EQ(p.getString("b"), "two");
    EXPECT_DOUBLE_EQ(p.getDouble("c"), 0.5);
    ASSERT_EQ(p.positional().size(), 1u);
    EXPECT_EQ(p.positional()[0], "pos");
}

TEST(ParamSet, GetDoubleInEnforcesRange)
{
    ParamSet p;
    p.set("p", "0.25");
    EXPECT_DOUBLE_EQ(p.getDoubleIn("p", 0.5, 0.0, 1.0), 0.25);
    EXPECT_DOUBLE_EQ(p.getDoubleIn("missing", 0.5, 0.0, 1.0), 0.5);
    setLogThrowOnFatal(true);
    p.set("p", "1.5");
    EXPECT_THROW(p.getDoubleIn("p", 0.5, 0.0, 1.0),
                 std::runtime_error);
    p.set("p", "-0.1");
    EXPECT_THROW(p.getDoubleIn("p", 0.5, 0.0, 1.0),
                 std::runtime_error);
    setLogThrowOnFatal(false);
}

TEST(ParamSet, MalformedIntegerIsFatal)
{
    setLogThrowOnFatal(true);
    std::string capture;
    setLogCapture(&capture);
    ParamSet p;
    p.set("x", "notanint");
    EXPECT_THROW(p.getInt("x"), std::runtime_error);
    setLogCapture(nullptr);
    setLogThrowOnFatal(false);
    EXPECT_NE(capture.find("fatal"), std::string::npos);
}

TEST(Logging, CaptureAndLevels)
{
    std::string capture;
    setLogCapture(&capture);
    warn("watch out %d", 7);
    inform("hello");
    setLogCapture(nullptr);
    EXPECT_NE(capture.find("warn: watch out 7"), std::string::npos);
    EXPECT_NE(capture.find("info: hello"), std::string::npos);
}

TEST(Logging, PanicThrowsWhenConfigured)
{
    setLogThrowOnFatal(true);
    std::string capture;
    setLogCapture(&capture);
    EXPECT_THROW(panic("boom"), std::runtime_error);
    setLogCapture(nullptr);
    setLogThrowOnFatal(false);
}

} // namespace
} // namespace mithril
