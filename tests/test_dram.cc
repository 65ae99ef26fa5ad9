/**
 * @file
 * Tests for the DRAM substrate: timing presets, bank/rank state
 * machines, energy metering, and the ground-truth RH oracle.
 */

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "dram/bank.hh"
#include "dram/device.hh"
#include "dram/energy.hh"
#include "dram/mitigation.hh"
#include "dram/rank.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "telemetry/event_trace.hh"

namespace mithril::dram
{
namespace
{

TEST(Timing, PaperTableIIIValues)
{
    const Timing t = ddr5_4800();
    EXPECT_EQ(t.tRFC, nsToTick(295.0));
    EXPECT_EQ(t.tRC, nsToTick(48.64));
    EXPECT_EQ(t.tRFM, nsToTick(97.28));
    EXPECT_EQ(t.tRCD, nsToTick(16.64));
    EXPECT_EQ(t.tRP, nsToTick(16.64));
    EXPECT_EQ(t.tCL, nsToTick(16.64));
    EXPECT_EQ(t.tREFW, msToTick(32.0));
    EXPECT_EQ(refreshGroups(t), 8192u);
}

TEST(Timing, PaperGeometry)
{
    const Geometry g = paperGeometry();
    EXPECT_EQ(g.channels, 2u);
    EXPECT_EQ(g.ranksPerChannel, 1u);
    EXPECT_EQ(g.banksPerRank, 32u);
    EXPECT_EQ(g.totalBanks(), 64u);
    EXPECT_EQ(g.rowBytes, 8192u);
    EXPECT_EQ(g.columnsPerRow(), 128u);
    EXPECT_GT(g.capacityBytes(), 0ull);
}

TEST(Timing, MaxActsPerWindowMagnitude)
{
    // ~32ms * 92.5% / 48.64ns ~= 608K ACTs.
    const std::uint64_t acts = maxActsPerWindow(ddr5_4800());
    EXPECT_GT(acts, 590000u);
    EXPECT_LT(acts, 620000u);
}

TEST(Timing, RfmIntervalsPaperExample)
{
    // Section III-A's example: ~310 rows * 2K fits one tREFW; the W
    // term for RFM_TH=64 is in the low thousands.
    const std::uint64_t w = rfmIntervalsPerWindow(ddr5_4800(), 64);
    EXPECT_GT(w, 8000u);
    EXPECT_LT(w, 10000u);
}

class BankTest : public ::testing::Test
{
  protected:
    Timing timing_ = ddr5_4800();
    Bank bank_{timing_};
};

TEST_F(BankTest, StartsClosed)
{
    EXPECT_FALSE(bank_.isOpen());
    EXPECT_EQ(bank_.openRow(), kInvalidRow);
    EXPECT_EQ(bank_.earliestAct(100), 100);
}

TEST_F(BankTest, ActivateOpensAndFencesColumns)
{
    bank_.doActivate(1000, 7);
    EXPECT_TRUE(bank_.isOpen());
    EXPECT_EQ(bank_.openRow(), 7u);
    EXPECT_EQ(bank_.earliestCol(1000), 1000 + timing_.tRCD);
    EXPECT_EQ(bank_.earliestPre(1000), 1000 + timing_.tRAS);
    EXPECT_EQ(bank_.earliestAct(1000), 1000 + timing_.tRC);
}

TEST_F(BankTest, ReadReturnsDataTick)
{
    bank_.doActivate(0, 3);
    const Tick col = bank_.earliestCol(0);
    const Tick data = bank_.doRead(col);
    EXPECT_EQ(data, col + timing_.tCL + timing_.tBL);
}

TEST_F(BankTest, ConsecutiveReadsSpacedByTccd)
{
    bank_.doActivate(0, 3);
    const Tick c1 = bank_.earliestCol(0);
    bank_.doRead(c1);
    EXPECT_EQ(bank_.earliestCol(c1), c1 + timing_.tCCD);
}

TEST_F(BankTest, WriteDelaysPrechargeByRecovery)
{
    bank_.doActivate(0, 3);
    const Tick col = bank_.earliestCol(0);
    bank_.doWrite(col);
    EXPECT_GE(bank_.earliestPre(col),
              col + timing_.tCWL + timing_.tBL + timing_.tWR);
}

TEST_F(BankTest, PrechargeClosesAndFencesAct)
{
    bank_.doActivate(0, 3);
    const Tick pre = bank_.earliestPre(0);
    bank_.doPrecharge(pre);
    EXPECT_FALSE(bank_.isOpen());
    EXPECT_GE(bank_.earliestAct(pre), pre + timing_.tRP);
}

TEST_F(BankTest, RefreshOccupiesBank)
{
    bank_.doRefresh(0, timing_.tRFC);
    EXPECT_EQ(bank_.earliestAct(0), timing_.tRFC);
}

TEST_F(BankTest, ActCountAccumulates)
{
    for (int i = 0; i < 3; ++i) {
        const Tick t = bank_.earliestAct(0);
        bank_.doActivate(t, 1);
        bank_.doPrecharge(bank_.earliestPre(t));
    }
    EXPECT_EQ(bank_.actCount(), 3u);
}

TEST(RankTest, TfawLimitsFourActs)
{
    const Timing timing = ddr5_4800();
    RankTiming rank(timing);
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        t = rank.earliestAct(t);
        rank.recordAct(t);
        t += 1;
    }
    // The fifth ACT must wait for the first + tFAW.
    EXPECT_GE(rank.earliestAct(t), timing.tFAW);
}

TEST(RankTest, TrrdSpacesBackToBackActs)
{
    const Timing timing = ddr5_4800();
    RankTiming rank(timing);
    rank.recordAct(1000);
    EXPECT_EQ(rank.earliestAct(1000), 1000 + timing.tRRD);
}

TEST(Energy, AccumulatesPerOperation)
{
    EnergyParams p;
    EnergyMeter meter(p);
    meter.addAct(10);
    meter.addPre(10);
    meter.addRead(5);
    meter.addWrite(2);
    meter.addRefreshRows(8);
    meter.addPreventiveRows(4);
    meter.addTrackerOps(100);
    const double expect = 10 * p.actPj + 10 * p.prePj + 5 * p.rdPj +
                          2 * p.wrPj + 8 * p.refRowPj +
                          4 * p.prevRefRowPj + 100 * p.trackerOpPj;
    EXPECT_DOUBLE_EQ(meter.totalPj(), expect);
    EXPECT_DOUBLE_EQ(meter.protectionPj(),
                     4 * p.prevRefRowPj + 100 * p.trackerOpPj);
    meter.reset();
    EXPECT_DOUBLE_EQ(meter.totalPj(), 0.0);
}

class OracleTest : public ::testing::Test
{
  protected:
    RhOracle oracle_{2, 1024, 100, 1};
};

TEST_F(OracleTest, NeighborsAccumulateDisturbance)
{
    oracle_.onActivate(0, 10);
    oracle_.onActivate(0, 10);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 2.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 2.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(1, 9), 0.0);
}

TEST_F(OracleTest, DoubleSidedSumsBothAggressors)
{
    oracle_.onActivate(0, 10);
    oracle_.onActivate(0, 12);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 2.0);
}

TEST_F(OracleTest, RowRefreshResets)
{
    oracle_.onActivate(0, 10);
    oracle_.onRowRefresh(0, 11);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 1.0);
}

TEST_F(OracleTest, NeighborRefreshClearsVictims)
{
    oracle_.onActivate(0, 10);
    oracle_.onNeighborRefresh(0, 10);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 9), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 11), 0.0);
}

TEST_F(OracleTest, BitFlipAtThreshold)
{
    for (int i = 0; i < 99; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 0u);
    oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 2u);  // Rows 9 and 11 both flipped.
    EXPECT_EQ(oracle_.flippedRows(), 2u);
    EXPECT_DOUBLE_EQ(oracle_.maxDisturbanceEver(), 100.0);
}

TEST_F(OracleTest, FlipCountedOncePerEpisode)
{
    for (int i = 0; i < 150; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 2u);
    // Refresh then re-hammer: a new episode, new flips.
    oracle_.onNeighborRefresh(0, 10);
    for (int i = 0; i < 100; ++i)
        oracle_.onActivate(0, 10);
    EXPECT_EQ(oracle_.bitFlips(), 4u);
}

TEST_F(OracleTest, AutoRefreshRotatesThroughRows)
{
    oracle_.onActivate(0, 1);  // Disturbs rows 0 and 2.
    // 1024 rows / 256 groups = 4 rows per REF: rows 0-3 refreshed.
    oracle_.onAutoRefresh(0, 256);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 2), 0.0);
    // A full sweep of 256 REFs refreshes every row.
    oracle_.onActivate(0, 500);
    for (int i = 0; i < 256; ++i)
        oracle_.onAutoRefresh(0, 256);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 499), 0.0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 501), 0.0);
}

TEST_F(OracleTest, EdgeRowsHaveOneNeighbor)
{
    oracle_.onActivate(0, 0);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 1), 1.0);
    oracle_.onActivate(0, 1023);
    EXPECT_DOUBLE_EQ(oracle_.disturbance(0, 1022), 1.0);
}

TEST(OracleBlastRadius, Distance2QuarterWeight)
{
    RhOracle oracle(1, 1024, 100, 2);
    oracle.onActivate(0, 10);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 9), 1.0);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 8), 0.25);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 12), 0.25);
}

TEST(OracleBlastRadius, NeighborRefreshCoversRadius)
{
    RhOracle oracle(1, 1024, 100, 2);
    oracle.onActivate(0, 10);
    oracle.onNeighborRefresh(0, 10);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 8), 0.0);
    EXPECT_DOUBLE_EQ(oracle.disturbance(0, 12), 0.0);
}

// ------------------------------------------- oracle vs reference model

/**
 * The oracle's semantics over ordered containers: disturbance counts
 * in a std::map, flipped rows in a std::set, and the OracleFlip /
 * NearMiss events it must emit, per bank.
 */
class ReferenceOracle
{
  public:
    using Row = std::pair<BankId, RowId>;

    ReferenceOracle(std::uint32_t banks, std::uint32_t rows,
                    std::uint32_t flip_th, std::uint32_t radius)
        : rows_(rows), radius_(radius),
          thresholdQ_(std::uint64_t{flip_th} * 4), refreshPtr_(banks, 0),
          events_(banks)
    {
    }

    void activate(BankId bank, RowId row, Tick now)
    {
        ++activations_;
        for (std::uint32_t d = 1; d <= radius_; ++d) {
            const std::uint32_t weight_q = (d == 1) ? 4 : 1;
            if (row >= d)
                disturb(bank, row - d, weight_q, now);
            if (row + d < rows_)
                disturb(bank, row + d, weight_q, now);
        }
    }

    void refreshRow(BankId bank, RowId row)
    {
        if (counts_.erase({bank, row}) && flipped_.count({bank, row}))
            ++idleFlipped_;
    }

    void refreshNeighbors(BankId bank, RowId aggressor)
    {
        for (std::uint32_t d = 1; d <= radius_; ++d) {
            if (aggressor >= d)
                refreshRow(bank, aggressor - d);
            if (aggressor + d < rows_)
                refreshRow(bank, aggressor + d);
        }
    }

    void autoRefresh(BankId bank, std::uint32_t groups)
    {
        RowId &ptr = refreshPtr_[bank];
        for (std::uint32_t i = 0; i < (rows_ + groups - 1) / groups; ++i) {
            refreshRow(bank, ptr);
            ptr = (ptr + 1) % rows_;
        }
    }

    double disturbance(BankId bank, RowId row) const
    {
        const auto it = counts_.find({bank, row});
        return it == counts_.end() ? 0.0 : it->second / 4.0;
    }

    /** Rows the oracle must keep: disturbed and unrefreshed, or ever
     *  flipped. */
    std::size_t resident() const { return counts_.size() + idleFlipped_; }

    const std::map<Row, std::uint64_t> &counts() const { return counts_; }
    double maxDisturbanceEver() const { return maxQ_ / 4.0; }
    std::uint64_t bitFlips() const { return bitFlips_; }
    std::uint64_t flippedRows() const { return flipped_.size(); }
    std::uint64_t activations() const { return activations_; }
    std::uint64_t nearMisses() const { return nearMisses_; }
    const std::vector<telemetry::TraceEvent> &events(BankId bank) const
    {
        return events_[bank];
    }

  private:
    void disturb(BankId bank, RowId row, std::uint32_t weight_q, Tick now)
    {
        const auto [it, inserted] = counts_.try_emplace({bank, row}, 0);
        if (inserted && flipped_.count({bank, row}))
            --idleFlipped_;
        std::uint64_t &count = it->second;
        const std::uint64_t before = count;
        count += weight_q;
        maxQ_ = std::max(maxQ_, count);
        telemetry::TraceEvent ev;
        ev.tick = now;
        ev.bank = bank;
        ev.row = row;
        const std::uint64_t near_q = thresholdQ_ - thresholdQ_ / 8;
        if (before < thresholdQ_ && count >= thresholdQ_) {
            ++bitFlips_;
            flipped_.insert({bank, row});
            ev.kind = telemetry::EventKind::OracleFlip;
            ev.arg = static_cast<std::uint32_t>(flipped_.size());
            events_[bank].push_back(ev);
        } else if (count < thresholdQ_ && count >= near_q &&
                   before < near_q) {
            ++nearMisses_;
            ev.kind = telemetry::EventKind::NearMiss;
            ev.arg = static_cast<std::uint32_t>(thresholdQ_ - count);
            events_[bank].push_back(ev);
        }
    }

    std::uint32_t rows_;
    std::uint32_t radius_;
    std::uint64_t thresholdQ_;
    std::map<Row, std::uint64_t> counts_;
    std::set<Row> flipped_;
    /** Flipped rows with no count (refreshed since): still resident. */
    std::size_t idleFlipped_ = 0;
    std::vector<RowId> refreshPtr_;
    std::uint64_t maxQ_ = 0;
    std::uint64_t bitFlips_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t nearMisses_ = 0;
    std::vector<std::vector<telemetry::TraceEvent>> events_;
};

/** First difference between the oracle and the model on the global
 *  counters and the given rows ("" when they agree). */
std::string
oracleMismatch(const RhOracle &oracle, const ReferenceOracle &ref,
               const std::vector<ReferenceOracle::Row> &rows)
{
    std::ostringstream out;
    if (oracle.maxDisturbanceEver() != ref.maxDisturbanceEver())
        out << "maxDisturbanceEver " << oracle.maxDisturbanceEver()
            << " != " << ref.maxDisturbanceEver();
    else if (oracle.bitFlips() != ref.bitFlips())
        out << "bitFlips " << oracle.bitFlips() << " != " << ref.bitFlips();
    else if (oracle.flippedRows() != ref.flippedRows())
        out << "flippedRows " << oracle.flippedRows()
            << " != " << ref.flippedRows();
    for (const auto &[bank, row] : rows) {
        if (!out.str().empty())
            break;
        if (oracle.disturbance(bank, row) != ref.disturbance(bank, row))
            out << "disturbance(" << bank << ", " << row
                << ") " << oracle.disturbance(bank, row)
                << " != " << ref.disturbance(bank, row);
    }
    return out.str();
}

/** Every row the model holds a count for, plus its radius-3 ring. */
std::vector<ReferenceOracle::Row>
modelRows(const ReferenceOracle &ref, std::uint32_t rows)
{
    std::vector<ReferenceOracle::Row> out;
    for (const auto &[key, count] : ref.counts()) {
        for (RowId r = key.second >= 3 ? key.second - 3 : 0;
             r < std::min(key.second + 4, rows); ++r)
            out.emplace_back(key.first, r);
    }
    return out;
}

/** Blast radius x whether an event recorder is attached. */
class OracleProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>>
{
};

/**
 * Random activate / activation run / row refresh / neighbour refresh
 * / auto-refresh streams through the oracle and the model. Rows are
 * drawn from the bank edges, from a few row indices shared by every
 * bank (keys that differ only in their bank bits), and uniformly; a
 * fill phase grows the table several times and a drain phase erases
 * most of it. Half the activations arrive one at a time through
 * onActivate(), half as runs of 1..64 through onActivateRun(): rows
 * drawn one by one, or double- and multi-sided hammering, whose
 * adjacent aggressors share victims (the run kernel's slot memo).
 */
TEST_P(OracleProperty, MatchesReferenceModel)
{
    constexpr std::uint32_t kBanks = 32, kRows = 512, kFlipTh = 12;
    constexpr std::uint32_t kGroups = 64, kOps = 24000;
    const auto [radius, traced] = GetParam();
    RhOracle oracle(kBanks, kRows, kFlipTh, radius);
    ReferenceOracle ref(kBanks, kRows, kFlipTh, radius);
    telemetry::EventRecorder recorder(kBanks, 1u << 16);
    if (traced)
        oracle.setEventRecorder(&recorder);
    const std::size_t initial_capacity = oracle.tableCapacity();
    std::size_t peak = 0;

    Rng rng(0x5eed0000 + radius);
    const RowId edges[] = {0, 1, 2, kRows - 3, kRows - 2, kRows - 1};
    const RowId shared[] = {7, 100, 101, 300};
    auto draw_row = [&]() -> RowId {
        const double pick = rng.nextDouble();
        return pick < 0.15   ? edges[rng.nextBounded(6)]
               : pick < 0.45 ? shared[rng.nextBounded(4)]
                             : static_cast<RowId>(rng.nextBounded(kRows));
    };
    using telemetry::EventKind;
    std::vector<RowId> run;
    std::uint32_t runs = 0, runs_grown = 0, runs_flipped = 0,
                  runs_near = 0;
    for (std::uint32_t step = 0; step < kOps; ++step) {
        const BankId bank = static_cast<BankId>(rng.nextBounded(kBanks));
        const RowId row = draw_row();
        // Fill phase: mostly activations. Drain phase: mostly refreshes.
        const double act_share = step < kOps / 2 ? 0.85 : 0.3;
        const double op = rng.nextDouble();
        const Tick now = Tick{step} * 4096;
        run.assign(1, row);
        if (op < act_share / 2) {
            oracle.setNow(now);
            oracle.onActivate(bank, row);
            ref.activate(bank, row, now);
        } else if (op < act_share) {
            // Pattern 0: rows drawn one by one; 1: double-sided
            // (row, row + 2, row, ...); 2: multi-sided (row, row + 2,
            // row + 4, ...), wrapping at the bank end.
            const auto length = 1 + rng.nextBounded(64);
            const auto pattern = rng.nextBounded(3);
            for (std::uint32_t i = 1; i < length; ++i) {
                const RowId offset = pattern == 1 ? 2 * (i % 2) : 2 * i;
                run.push_back(pattern == 0 ? draw_row()
                                           : (row + offset) % kRows);
            }
            const Tick stride = 1 + static_cast<Tick>(rng.nextBounded(50));
            const std::size_t capacity = oracle.tableCapacity();
            const std::uint64_t flips = ref.bitFlips();
            const std::uint64_t near = ref.nearMisses();
            oracle.onActivateRun(bank, run.data(), run.size(), now,
                                 stride);
            for (std::size_t i = 0; i < run.size(); ++i) {
                ref.activate(bank, run[i],
                             now + static_cast<Tick>(i) * stride);
            }
            ++runs;
            runs_grown += run.size() > 1 && oracle.tableCapacity() > capacity;
            runs_flipped += ref.bitFlips() > flips;
            runs_near += ref.nearMisses() > near;
        } else if (op < act_share + (1 - act_share) / 3) {
            oracle.onRowRefresh(bank, row);
            ref.refreshRow(bank, row);
        } else if (op < act_share + 2 * (1 - act_share) / 3) {
            oracle.onNeighborRefresh(bank, row);
            ref.refreshNeighbors(bank, row);
        } else {
            oracle.onAutoRefresh(bank, kGroups);
            ref.autoRefresh(bank, kGroups);
        }

        std::vector<ReferenceOracle::Row> touched;
        for (RowId r : run) {
            for (RowId t = r >= 3 ? r - 3 : 0; t < std::min(r + 4, kRows);
                 ++t)
                touched.emplace_back(bank, t);
        }
        ASSERT_EQ(oracleMismatch(oracle, ref, touched), "")
            << "radius " << radius << " step " << step;
        ASSERT_EQ(recorder.emittedOfKind(EventKind::OracleFlip),
                  traced ? ref.bitFlips() : 0)
            << "step " << step;
        ASSERT_EQ(recorder.emittedOfKind(EventKind::NearMiss),
                  traced ? ref.nearMisses() : 0)
            << "step " << step;

        peak = std::max(peak, ref.resident());
        ASSERT_LE(oracle.tableCapacity(),
                  std::max(initial_capacity, 4 * peak))
            << "step " << step;
        if (step % 1000 == 999) {
            ASSERT_EQ(oracleMismatch(oracle, ref, modelRows(ref, kRows)), "")
                << "radius " << radius << " step " << step;
        }
    }

    // At least three growths, and memory still tracks the peak
    // resident row count rather than the 16K-row geometry.
    EXPECT_GE(oracle.tableCapacity(), initial_capacity * 8);
    EXPECT_LE(oracle.tableCapacity(), 4 * peak);
    EXPECT_GT(ref.bitFlips(), ref.flippedRows());  // Re-flipped rows.
    EXPECT_GT(ref.nearMisses(), 0u);
    // Runs that grew the table, crossed FlipTH, and crossed the
    // near-miss line.
    EXPECT_GT(runs_grown, 0u) << runs << " runs";
    EXPECT_GT(runs_flipped, 0u) << runs << " runs";
    EXPECT_GT(runs_near, 0u) << runs << " runs";
    EXPECT_EQ(oracle.activations(), ref.activations());
    for (BankId b = 0; b < kBanks; ++b) {
        if (traced)
            EXPECT_EQ(recorder.bankEvents(b), ref.events(b)) << "bank " << b;
        else
            EXPECT_TRUE(recorder.bankEvents(b).empty()) << "bank " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    BlastRadius, OracleProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 3u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<OracleProperty::ParamType> &info) {
        return "r" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_traced" : "_untraced");
    });

TEST(OracleTable, EraseChainsWrapPastTableEnd)
{
    // Two rows per bank: activating one row disturbs only the other,
    // so each activation inserts exactly one chosen flat key
    // (bank * 2 + row). Keys are picked by the table's Fibonacci
    // home slot so one probe chain starts in the last two slots and
    // wraps past the end into slots 0, 1, ...
    constexpr std::uint32_t kBanks = 4096, kRows = 2;
    RhOracle oracle(kBanks, kRows, 1000, 1);
    ReferenceOracle ref(kBanks, kRows, 1000, 1);
    const std::uint32_t capacity =
        static_cast<std::uint32_t>(oracle.tableCapacity());
    const int shift = 64 - __builtin_ctz(capacity);
    auto home = [&](std::uint32_t key) {
        return static_cast<std::uint32_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift);
    };
    std::vector<std::uint32_t> keys;
    for (std::uint32_t want : {capacity - 2, capacity - 1, capacity - 1,
                               capacity - 1, 0u, 0u, 1u, capacity - 2}) {
        std::uint32_t key = 0;
        while (home(key) != want ||
               std::find(keys.begin(), keys.end(), key) != keys.end())
            ++key;
        keys.push_back(key);
    }
    std::vector<ReferenceOracle::Row> all;
    for (std::uint32_t key : keys)
        all.emplace_back(key / kRows, key % kRows);

    auto insert = [&](std::uint32_t key, int times) {
        for (int i = 0; i < times; ++i) {
            oracle.onActivate(key / kRows, 1 - key % kRows);
            ref.activate(key / kRows, 1 - key % kRows, 0);
        }
    };
    // Distinct counts per key, so a row shifted into the wrong slot
    // shows up as a wrong disturbance.
    for (std::size_t i = 0; i < keys.size(); ++i)
        insert(keys[i], static_cast<int>(i) + 1);
    ASSERT_EQ(oracle.tableCapacity(), capacity);
    ASSERT_EQ(oracleMismatch(oracle, ref, all), "");

    // Erase from the chain head, the middle, and past the wrap, then
    // refill and erase in the reverse order.
    for (int round = 0; round < 2; ++round) {
        std::vector<std::size_t> order = {0, 3, 1, 5, 7, 2, 6, 4};
        if (round == 1)
            std::reverse(order.begin(), order.end());
        for (std::size_t idx : order) {
            oracle.onRowRefresh(all[idx].first, all[idx].second);
            ref.refreshRow(all[idx].first, all[idx].second);
            ASSERT_EQ(oracleMismatch(oracle, ref, all), "")
                << "round " << round << " erase " << idx;
        }
        for (std::size_t i = 0; i < keys.size(); ++i)
            insert(keys[i], static_cast<int>(i) + 2);
        ASSERT_EQ(oracleMismatch(oracle, ref, all), "");
    }
}

/** A test scheme: without an RFM threshold it asks for an ARR of
 *  every activated row; with one it owes an RFM every `rfm_th` ACTs
 *  and treats nothing in it. */
class EchoTracker : public trackers::RhProtection
{
  public:
    explicit EchoTracker(std::uint32_t rfm_th = 0) : rfmTh_(rfm_th) {}

    std::string name() const override { return "echo"; }
    trackers::Location location() const override
    {
        return trackers::Location::Mc;
    }
    bool usesRfm() const override { return rfmTh_ > 0; }
    std::uint32_t rfmTh() const override { return rfmTh_; }
    void
    onActivate(BankId, RowId row, Tick, std::vector<RowId> &arr) override
    {
        if (rfmTh_ == 0)
            arr.push_back(row);
    }
    double tableBytesPerBank() const override { return 0.0; }

  private:
    std::uint32_t rfmTh_;
};

using Kind = Mitigation::Verdict::Kind;

TEST(DeviceTest, ActivateInformsOracleAndMeters)
{
    const Timing timing = ddr5_4800();
    Geometry geom = paperGeometry();
    Device device(timing, geom, 1000);
    device.activate(3, 50, 0);
    EXPECT_EQ(device.energy().acts(), 1u);
    EXPECT_DOUBLE_EQ(device.oracle().disturbance(3, 51), 1.0);
    EXPECT_TRUE(device.bank(3).isOpen());
}

TEST(DeviceTest, RfmWithoutAggressorsCountsAsSkipped)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    EchoTracker tracker(1);
    device.setTracker(&tracker);
    device.activate(0, 100, 0);
    device.precharge(0, device.bank(0).earliestPre(0));
    const Mitigation::Verdict verdict = device.mitigation().verdict(0);
    ASSERT_EQ(verdict.kind, Kind::Rfm);
    EXPECT_EQ(device.mitigate(0, verdict, timing.tRC * 4), 0u);
    EXPECT_EQ(device.rfmCount(), 1u);
    EXPECT_EQ(device.rfmSkipped(), 1u);
    EXPECT_FALSE(device.mitigation().owes(0));
}

TEST(DeviceTest, PreventiveRefreshClearsVictimsAndCharges)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    EchoTracker tracker;
    device.setTracker(&tracker);
    device.activate(0, 100, 0);
    device.precharge(0, device.bank(0).earliestPre(0));
    const Mitigation::Verdict verdict = device.mitigation().verdict(0);
    ASSERT_EQ(verdict.kind, Kind::Arr);
    EXPECT_EQ(verdict.row, 100u);
    EXPECT_EQ(device.mitigate(0, verdict, timing.tRC * 4), 1u);
    EXPECT_DOUBLE_EQ(device.oracle().disturbance(0, 101), 0.0);
    EXPECT_EQ(device.energy().preventiveRows(), 2u);
    EXPECT_EQ(device.preventiveCount(), 1u);
    EXPECT_FALSE(device.mitigation().owes(0));
}

TEST(MitigationTest, ArrQueueIsFirstInFirstOut)
{
    const Timing timing = ddr5_4800();
    Mitigation mitigation(timing, paperGeometry());
    EchoTracker tracker;
    mitigation.setTracker(&tracker);
    mitigation.noteActs(5, 1, {7, 9});
    mitigation.noteActs(5, 1, {11});
    for (RowId want : {7u, 9u, 11u}) {
        const Mitigation::Verdict verdict = mitigation.verdict(5);
        ASSERT_EQ(verdict.kind, Kind::Arr);
        EXPECT_EQ(verdict.row, want);
        EXPECT_EQ(mitigation.commit(5, verdict, 0, nullptr), 1u);
    }
    EXPECT_EQ(mitigation.verdict(5).kind, Kind::None);
    EXPECT_EQ(mitigation.preventiveAt(5), 3u);
}

TEST(MitigationTest, RaaOwesAnRfmAtTheThresholdAndRefDecrementsIt)
{
    const Timing timing = ddr5_4800();
    Mitigation mitigation(timing, paperGeometry());
    EchoTracker tracker(8);
    mitigation.setTracker(&tracker);
    mitigation.noteActs(0, 6, {});
    EXPECT_EQ(mitigation.actsUntilRfm(0), 2u);
    mitigation.refresh(0, 0, 4, nullptr);
    EXPECT_EQ(mitigation.actsUntilRfm(0), 6u);
    mitigation.refresh(0, 0, 4, nullptr);
    EXPECT_EQ(mitigation.actsUntilRfm(0), 8u);  // Saturates at 0.
    mitigation.noteActs(0, 8, {});
    EXPECT_TRUE(mitigation.owes(0));
    // A REF never cancels an owed RFM.
    mitigation.refresh(0, 0, 4, nullptr);
    ASSERT_EQ(mitigation.verdict(0).kind, Kind::Rfm);
    mitigation.commit(0, mitigation.verdict(0), 0, nullptr);
    EXPECT_FALSE(mitigation.owes(0));
    EXPECT_EQ(mitigation.actsUntilRfm(0), 8u);
    EXPECT_EQ(mitigation.rfms(), 1u);
}

TEST(MitigationTest, OwedBanksAreCountedPerChannel)
{
    const Timing timing = ddr5_4800();
    const Geometry geom = paperGeometry();  // 32 banks per channel.
    Mitigation mitigation(timing, geom);
    EchoTracker tracker;
    mitigation.setTracker(&tracker);
    mitigation.noteActs(3, 1, {1});
    mitigation.noteActs(3, 1, {2});
    mitigation.noteActs(40, 1, {3});
    EXPECT_EQ(mitigation.owedBanks(0), 1u);
    EXPECT_EQ(mitigation.owedBanks(1), 1u);
    mitigation.commit(3, mitigation.verdict(3), 0, nullptr);
    EXPECT_EQ(mitigation.owedBanks(0), 1u);
    mitigation.commit(3, mitigation.verdict(3), 0, nullptr);
    EXPECT_EQ(mitigation.owedBanks(0), 0u);
    EXPECT_EQ(mitigation.owedBanks(1), 1u);
}

TEST(DeviceTest, AutoRefreshBlocksEveryBankOfRank)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    device.autoRefreshRank(0, 1000);
    for (BankId b = 0; b < 32; ++b)
        EXPECT_GE(device.bank(b).earliestAct(1000),
                  1000 + timing.tRFC);
    // The other channel's rank is untouched.
    EXPECT_EQ(device.bank(32).earliestAct(1000), 1000);
}

TEST(DeviceTest, RankAndChannelIndexing)
{
    const Timing timing = ddr5_4800();
    Device device(timing, paperGeometry(), 1000);
    EXPECT_EQ(device.rankOf(0), 0u);
    EXPECT_EQ(device.rankOf(31), 0u);
    EXPECT_EQ(device.rankOf(32), 1u);
    EXPECT_EQ(device.channelOf(31), 0u);
    EXPECT_EQ(device.channelOf(32), 1u);
}

} // namespace
} // namespace mithril::dram
