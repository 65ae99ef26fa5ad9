/**
 * @file
 * Differential tests: the optimized implementations checked against
 * naive reference models under long random operation sequences.
 *
 *  - CbsTable (O(1) stream-summary) vs a literal O(N)-scan CbS.
 *  - The command-level harness's RFM/REF accounting vs closed-form
 *    cadence expectations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "core/bounds.hh"
#include "core/cbs_table.hh"
#include "core/mithril.hh"
#include "engine/act_stream_engine.hh"

namespace mithril::core
{
namespace
{

/**
 * Literal Counter-based Summary, straight from the paper's Figure 3:
 * a flat array scanned linearly. Deliberately simple — this is the
 * specification the fast table must match.
 */
class ReferenceCbs
{
  public:
    explicit ReferenceCbs(std::uint32_t n)
        : rows_(n, kInvalidRow), counts_(n, 0)
    {
    }

    std::uint64_t
    touch(RowId row)
    {
        // Hit?
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (rows_[i] == row)
                return ++counts_[i];
        }
        // Miss: replace the entry with the minimum counter. To mirror
        // the fast table's tie-break we take *any* minimum; counts are
        // what we compare, and the multiset of counts is tie-break
        // independent.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < rows_.size(); ++i) {
            if (counts_[i] < counts_[victim])
                victim = i;
        }
        rows_[victim] = row;
        return ++counts_[victim];
    }

    std::uint64_t
    minValue() const
    {
        return *std::min_element(counts_.begin(), counts_.end());
    }

    std::uint64_t
    maxValue() const
    {
        return *std::max_element(counts_.begin(), counts_.end());
    }

    /** Lower the given row's counter to the minimum; returns its
     *  value before the reset (kNoRow if absent). */
    std::uint64_t
    resetRowToMin(RowId row)
    {
        const std::uint64_t min = minValue();
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (rows_[i] == row) {
                const std::uint64_t before = counts_[i];
                counts_[i] = min;
                return before;
            }
        }
        return ~0ull;
    }

    std::vector<std::uint64_t>
    sortedCounts() const
    {
        std::vector<std::uint64_t> out = counts_;
        std::sort(out.begin(), out.end());
        return out;
    }

    std::uint64_t
    estimate(RowId row) const
    {
        for (std::size_t i = 0; i < rows_.size(); ++i)
            if (rows_[i] == row)
                return counts_[i];
        return minValue();
    }

  private:
    std::vector<RowId> rows_;
    std::vector<std::uint64_t> counts_;
};

std::vector<std::uint64_t>
sortedCounts(const CbsTable &table)
{
    std::vector<std::uint64_t> out(table.capacity(), 0);
    std::size_t i = 0;
    for (const auto &entry : table.entries())
        out[i++] = entry.count;
    std::sort(out.begin(), out.end());
    return out;
}

class CbsDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t,
                                                 double>>
{
};

TEST_P(CbsDifferential, MatchesReferenceOnRandomStreams)
{
    const auto [capacity, universe, zipf_s] = GetParam();
    CbsTable fast(capacity);
    ReferenceCbs ref(capacity);
    Rng rng(capacity * 31 + universe);

    for (int i = 0; i < 30000; ++i) {
        RowId row;
        if (zipf_s > 0.0)
            row = static_cast<RowId>(rng.nextZipf(universe, zipf_s));
        else
            row = static_cast<RowId>(rng.nextBounded(universe));

        fast.touch(row);
        ref.touch(row);

        if (i % 257 == 0) {
            // Touched rows' estimates must agree exactly; the count
            // multiset must match (tie-breaks may differ by identity
            // but never by value).
            ASSERT_EQ(fast.estimate(row), ref.estimate(row))
                << "step " << i;
            ASSERT_EQ(fast.minValue(), ref.minValue()) << "step " << i;
            ASSERT_EQ(fast.maxValue(), ref.maxValue()) << "step " << i;
            ASSERT_EQ(sortedCounts(fast), ref.sortedCounts())
                << "step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CbsDifferential,
    ::testing::Values(std::make_tuple(4u, 16u, 0.0),
                      std::make_tuple(16u, 64u, 0.0),
                      std::make_tuple(16u, 1024u, 0.0),
                      std::make_tuple(32u, 256u, 1.1),
                      std::make_tuple(64u, 4096u, 0.8),
                      std::make_tuple(8u, 8u, 0.0)));

TEST(CbsDifferentialReset, GreedyResetMatchesReference)
{
    // Interleave touches with greedy resets. Max-selection tie-breaks
    // are implementation-defined, so the reference resets the *same
    // row* the fast table greedily selected — after which both
    // structures must stay value-identical.
    CbsTable fast(16);
    ReferenceCbs ref(16);
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const RowId row =
            static_cast<RowId>(rng.nextZipf(256, 1.0));
        fast.touch(row);
        ref.touch(row);
        if (i % 64 == 63) {
            const std::uint64_t max_before = fast.maxValue();
            const RowId selected = fast.resetMaxToMin();
            ASSERT_NE(selected, kInvalidRow);
            const std::uint64_t ref_before =
                ref.resetRowToMin(selected);
            // The fast table's greedy pick must hold the reference's
            // maximum value.
            ASSERT_EQ(ref_before, max_before) << "step " << i;
        }
        if (i % 509 == 0) {
            ASSERT_EQ(sortedCounts(fast), ref.sortedCounts())
                << "step " << i;
            ASSERT_EQ(fast.minValue(), ref.minValue());
            ASSERT_EQ(fast.maxValue(), ref.maxValue());
        }
    }
}

TEST(CbsFastPaths, TouchFastAndTouchRunMatchTouch)
{
    // The cached scalar fast path and the register-cached batch run
    // must stay value-identical to touch() under random mixed use.
    CbsTable plain(16), fast(16), run(16);
    Rng rng(99);
    std::vector<RowId> buf;
    for (int round = 0; round < 3000; ++round) {
        buf.clear();
        const std::size_t n = 1 + rng.nextBounded(24);
        for (std::size_t i = 0; i < n; ++i)
            buf.push_back(static_cast<RowId>(rng.nextZipf(128, 0.9)));

        for (RowId r : buf)
            plain.touch(r);
        for (RowId r : buf)
            fast.touchFast(r);
        std::size_t done = 0;
        while (done < buf.size()) {
            done += run.touchRun(buf.data() + done,
                                 buf.size() - done, 7, nullptr);
        }

        ASSERT_EQ(plain.touches(), fast.touches());
        ASSERT_EQ(plain.touches(), run.touches());
        if (round % 97 == 0) {
            ASSERT_EQ(sortedCounts(plain), sortedCounts(fast));
            ASSERT_EQ(sortedCounts(plain), sortedCounts(run));
            ASSERT_EQ(plain.minValue(), fast.minValue());
            ASSERT_EQ(plain.maxValue(), run.maxValue());
            ASSERT_EQ(plain.estimate(buf.back()),
                      fast.estimate(buf.back()));
            ASSERT_EQ(plain.estimate(buf.back()),
                      run.estimate(buf.back()));
            ASSERT_TRUE(fast.checkInvariants());
            ASSERT_TRUE(run.checkInvariants());
        }
    }
}

TEST(CbsFastPaths, DivisibilityTriggerMatchesModulo)
{
    // touchRun's multiply-based divisibility trigger must agree with
    // the literal est % divisor == 0 for every divisor shape.
    for (std::uint64_t d : {1ull, 2ull, 3ull, 7ull, 10ull, 781ull,
                            1562ull, 65536ull}) {
        CbsTable fast(8), ref(8);
        Rng rng(static_cast<std::uint64_t>(d * 31 + 5));
        for (int i = 0; i < 5000; ++i) {
            RowId row = static_cast<RowId>(rng.nextZipf(64, 1.0));
            bool hit = false;
            ASSERT_EQ(fast.touchRun(&row, 1, d, &hit), 1u);
            const bool expect = (ref.touch(row) % d) == 0;
            ASSERT_EQ(hit, expect) << "divisor " << d << " step " << i;
        }
    }
}

TEST(HarnessCadence, RfmAndRefCountsMatchClosedForm)
{
    // Drive exactly N ACTs and check REF/RFM counts against the
    // closed-form cadences the W term assumes.
    const dram::Timing timing = dram::ddr5_4800();
    MithrilParams params;
    params.nEntry = 64;
    params.rfmTh = 32;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30),
        &tracker);

    const std::uint64_t acts = 200000;
    engine::CallbackSource source(acts, [](std::uint64_t i) {
        return static_cast<RowId>(i % 97);
    });
    eng.run(source);

    EXPECT_EQ(eng.rfms(), acts / params.rfmTh);
    // Elapsed time ~= acts*tRC + rfms*tRFM + refs*tRFC; REF count must
    // equal elapsed/tREFI within one.
    const double elapsed = static_cast<double>(eng.now());
    const double expect_refs =
        elapsed / static_cast<double>(timing.tREFI);
    EXPECT_NEAR(static_cast<double>(eng.refs()), expect_refs, 1.5);
}

TEST(HarnessCadence, WindowIntervalsMatchesHarnessTime)
{
    // The W term of Theorem 1 predicts how many RFM intervals fit in
    // one tREFW; the harness, run for exactly one window of wall
    // time, must produce W RFMs within ~1%.
    const dram::Timing timing = dram::ddr5_4800();
    MithrilParams params;
    params.nEntry = 64;
    params.rfmTh = 64;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30),
        &tracker);

    std::uint64_t acts = 0;
    while (eng.now() < timing.tREFW) {
        eng.activate(0, static_cast<RowId>(acts % 131));
        ++acts;
    }
    const double w = static_cast<double>(
        core::windowIntervals(timing, params.rfmTh));
    EXPECT_NEAR(static_cast<double>(eng.rfms()), w, w * 0.01);
}

} // namespace
} // namespace mithril::core
