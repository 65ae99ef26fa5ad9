/**
 * @file
 * Tests for the memory controller: address mapping, request flow,
 * scheduling policies, auto-refresh cadence, RAA/RFM issue logic,
 * Mithril+ MRR skipping, ARR execution, and BlockHammer throttling
 * integration.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/random.hh"
#include "core/mithril.hh"
#include "dram/device.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "trackers/blockhammer.hh"

namespace mithril::mc
{
namespace
{

// --------------------------------------------------------- AddressMap

class AddressMapTest : public ::testing::Test
{
  protected:
    dram::Geometry geom_ = dram::paperGeometry();
    AddressMap map_{geom_};
};

TEST_F(AddressMapTest, ComposeDecodeRoundTrip)
{
    for (std::uint32_t ch = 0; ch < geom_.channels; ++ch) {
        for (std::uint32_t b : {0u, 7u, 31u}) {
            for (RowId row : {0u, 1234u, 65535u}) {
                for (std::uint32_t col : {0u, 63u, 127u}) {
                    Request req;
                    req.addr = map_.compose(ch, 0, b, row, col);
                    map_.decode(req);
                    EXPECT_EQ(req.channel, ch);
                    EXPECT_EQ(req.rank, 0u);
                    EXPECT_EQ(req.row, row);
                    EXPECT_EQ(req.column, col);
                    EXPECT_EQ(req.bank, map_.flatBank(ch, 0, b));
                }
            }
        }
    }
}

TEST_F(AddressMapTest, ConsecutiveLinesInterleaveChannelsThenBanks)
{
    Request a, b, c;
    a.addr = 0;
    b.addr = 64;
    c.addr = 64ull * 2 * 4;  // Past one channel's 4-line chunk.
    map_.decode(a);
    map_.decode(b);
    map_.decode(c);
    EXPECT_NE(a.channel, b.channel);
    EXPECT_EQ(a.channel, c.channel);
    EXPECT_NE(a.bank, c.bank);  // Bank hop after 4 lines.
    EXPECT_EQ(a.row, c.row);
}

TEST_F(AddressMapTest, SequentialStreamTouchesFourLinesPerBankVisit)
{
    // The minimalist-open contract: within one row visit, exactly 4
    // consecutive lines of a channel land in the same (bank, row).
    Request first;
    first.addr = 0;
    map_.decode(first);
    int same = 0;
    for (int i = 1; i < 4; ++i) {
        Request r;
        r.addr = static_cast<Addr>(i) * 64 * geom_.channels;
        map_.decode(r);
        same += (r.bank == first.bank && r.row == first.row);
    }
    EXPECT_EQ(same, 3);
}

TEST_F(AddressMapTest, FlatBankCoversAllBanks)
{
    std::vector<bool> seen(geom_.totalBanks(), false);
    for (std::uint32_t ch = 0; ch < geom_.channels; ++ch)
        for (std::uint32_t r = 0; r < geom_.ranksPerChannel; ++r)
            for (std::uint32_t b = 0; b < geom_.banksPerRank; ++b)
                seen[map_.flatBank(ch, r, b)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

// ------------------------------------- AddressMap, other geometries

/** The multi-channel/multi-rank geometry grid the frontend split must
 *  decode correctly: channels in {1,2,4} x ranks in {1,2}. */
std::vector<dram::Geometry>
geometryGrid()
{
    std::vector<dram::Geometry> grid;
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        for (std::uint32_t ranks : {1u, 2u}) {
            dram::Geometry g = dram::paperGeometry();
            g.channels = channels;
            g.ranksPerChannel = ranks;
            grid.push_back(g);
        }
    }
    return grid;
}

TEST(AddressMapGeometries, ComposeDecodeRoundTripsEveryGeometry)
{
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (std::uint32_t ch = 0; ch < geom.channels; ++ch) {
            for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
                for (std::uint32_t b :
                     {0u, 5u, geom.banksPerRank - 1}) {
                    for (RowId row :
                         {0u, 77u, geom.rowsPerBank - 1}) {
                        for (std::uint32_t col :
                             {0u, geom.columnsPerRow() - 1}) {
                            Request req;
                            req.addr =
                                map.compose(ch, r, b, row, col);
                            map.decode(req);
                            EXPECT_EQ(req.channel, ch);
                            EXPECT_EQ(req.rank, r);
                            EXPECT_EQ(req.row, row);
                            EXPECT_EQ(req.column, col);
                            EXPECT_EQ(req.bank,
                                      map.flatBank(ch, r, b));
                        }
                    }
                }
            }
        }
    }
}

TEST(AddressMapGeometries, DecodeComposeRoundTripsAddresses)
{
    // The inverse direction: decode an address, re-compose the decoded
    // fields, and land on the same address — over a stride that walks
    // channel, bank, rank, and row bits in every geometry.
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (std::uint64_t i = 0; i < 4096; ++i) {
            const Addr addr = i * 64 * 1031;  // Coprime stride.
            if (addr >= geom.capacityBytes())
                break;
            Request req;
            req.addr = addr;
            map.decode(req);
            const std::uint32_t bank_in_rank =
                req.bank % geom.banksPerRank;
            EXPECT_EQ(map.compose(req.channel, req.rank, bank_in_rank,
                                  req.row, req.column),
                      addr);
        }
    }
}

TEST(AddressMapGeometries, RowXorBankPermutationIsItsOwnInverse)
{
    // For a fixed row, the row-XOR spreads bank_in_rank through a
    // permutation; composing with the decoded bank must return the
    // original address (the XOR applied twice cancels), and distinct
    // banks must stay distinct.
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        for (RowId row : {1u, 31u, 4097u}) {
            std::vector<bool> seen(geom.banksPerRank, false);
            for (std::uint32_t b = 0; b < geom.banksPerRank; ++b) {
                Request req;
                req.addr = map.compose(0, 0, b, row, 0);
                map.decode(req);
                const std::uint32_t decoded =
                    req.bank % geom.banksPerRank;
                EXPECT_EQ(decoded, b);
                EXPECT_FALSE(seen[decoded]);
                seen[decoded] = true;
            }
        }
    }
}

TEST(AddressMapGeometries, FlatBankIsBijectiveOverFullBankSpace)
{
    for (const dram::Geometry &geom : geometryGrid()) {
        AddressMap map(geom);
        std::vector<std::uint32_t> hits(geom.totalBanks(), 0);
        for (std::uint32_t ch = 0; ch < geom.channels; ++ch)
            for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r)
                for (std::uint32_t b = 0; b < geom.banksPerRank; ++b)
                    ++hits[map.flatBank(ch, r, b)];
        for (std::uint32_t count : hits)
            EXPECT_EQ(count, 1u);  // Onto and one-to-one.
    }
}

// --------------------------------------------------------- Controller

/** A reactive test tracker: requests an ARR on every 8th ACT. */
class EveryNthArr : public trackers::RhProtection
{
  public:
    std::string name() const override { return "test"; }
    trackers::Location location() const override
    {
        return trackers::Location::Mc;
    }
    void
    onActivate(BankId, RowId row, Tick, std::vector<RowId> &arr) override
    {
        if (++count_ % 8 == 0)
            arr.push_back(row);
    }
    double tableBytesPerBank() const override { return 0.0; }

  private:
    std::uint64_t count_ = 0;
};

class ControllerTest : public ::testing::Test
{
  protected:
    void
    build(std::unique_ptr<trackers::RhProtection> tracker = nullptr,
          ControllerParams params = ControllerParams{})
    {
        tracker_ = std::move(tracker);
        device_ = std::make_unique<dram::Device>(timing_, geom_,
                                                 100000);
        device_->setTracker(tracker_.get());
        map_ = std::make_unique<AddressMap>(geom_);
        ctrl_ = std::make_unique<Controller>(*device_, *map_, params);
        ctrl_->setCompletionCallback(
            [this](const Request &req, Tick t) {
                completions_.emplace_back(req, t);
            });
    }

    /** Drive the controller until idle or `until`. */
    void
    drain(Tick until = msToTick(1.0))
    {
        Tick now = 0;
        while (now < until) {
            const Tick next = ctrl_->service(now);
            if (ctrl_->idle() && completionsStable())
                break;
            now = next;
        }
    }

    bool completionsStable() const { return true; }

    Request
    makeReq(std::uint32_t bank_in_rank, RowId row, std::uint32_t col,
            bool write = false, std::uint32_t core = 0)
    {
        Request req;
        req.addr = map_->compose(0, 0, bank_in_rank, row, col);
        req.isWrite = write;
        req.coreId = core;
        map_->decode(req);
        return req;
    }

    dram::Timing timing_ = dram::ddr5_4800();
    dram::Geometry geom_ = dram::paperGeometry();
    std::unique_ptr<trackers::RhProtection> tracker_;
    std::unique_ptr<dram::Device> device_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<Controller> ctrl_;
    std::vector<std::pair<Request, Tick>> completions_;
    std::vector<std::size_t> positions_;
};

TEST_F(ControllerTest, SingleReadCompletesWithExpectedLatency)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    // ACT + tRCD + tCL + tBL, plus command-slot slack.
    const Tick expect =
        timing_.tRCD + timing_.tCL + timing_.tBL;
    EXPECT_NEAR(static_cast<double>(completions_[0].second),
                static_cast<double>(expect), 3000.0);
    EXPECT_EQ(ctrl_->stats().reads, 1u);
    EXPECT_EQ(ctrl_->stats().activates, 1u);
}

TEST_F(ControllerTest, RowHitAvoidsSecondActivate)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 6), 0));
    drain();
    EXPECT_EQ(completions_.size(), 2u);
    EXPECT_EQ(ctrl_->stats().activates, 1u);
    EXPECT_EQ(ctrl_->stats().rowHits, 2u);
}

TEST_F(ControllerTest, RowConflictPrechargesAndReactivates)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, 5), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 200, 5), 0));
    drain();
    EXPECT_EQ(completions_.size(), 2u);
    EXPECT_EQ(ctrl_->stats().activates, 2u);
    EXPECT_GE(ctrl_->stats().precharges, 1u);
}

TEST_F(ControllerTest, MinimalistOpenCapsRowHitStreak)
{
    build();
    for (std::uint32_t c = 0; c < 8; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c), 0));
    drain();
    EXPECT_EQ(completions_.size(), 8u);
    // 8 same-row requests with a 4-hit cap: at least 2 activates.
    EXPECT_GE(ctrl_->stats().activates, 2u);
}

TEST_F(ControllerTest, WritesComplete)
{
    build();
    ASSERT_TRUE(ctrl_->enqueue(makeReq(1, 50, 0, true), 0));
    drain();
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(ctrl_->stats().writes, 1u);
}

TEST_F(ControllerTest, QueueCapacityEnforced)
{
    ControllerParams params;
    params.queueCapacity = 2;
    build(nullptr, params);
    EXPECT_TRUE(ctrl_->enqueue(makeReq(0, 1, 0), 0));
    EXPECT_TRUE(ctrl_->enqueue(makeReq(1, 1, 0), 0));
    EXPECT_FALSE(ctrl_->enqueue(makeReq(2, 1, 0), 0));
}

TEST_F(ControllerTest, AutoRefreshCadence)
{
    build();
    // Run for ~10 tREFI with no traffic: one REF per rank per tREFI.
    Tick now = 0;
    const Tick end = 10 * timing_.tREFI + timing_.tREFI / 2;
    while (now < end)
        now = ctrl_->service(now);
    // The channel-0 controller owns 1 of the 2 ranks, refreshed ~10
    // times (the other rank belongs to channel 1's controller).
    EXPECT_NEAR(static_cast<double>(ctrl_->stats().refreshes), 10.0,
                2.0);
}

TEST_F(ControllerTest, RfmIssuedEveryRfmThActs)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp));

    // 64 ACT-causing requests to one bank, serialized so each request
    // is a fresh activation (FR-FCFS would otherwise coalesce hits).
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    EXPECT_EQ(completions_.size(), 64u);
    // 64 demand ACTs, plus up to one reactivation per RFM (the bank
    // closes for the RFM before the pending hit drains).
    EXPECT_GE(ctrl_->stats().activates, 64u);
    EXPECT_LE(ctrl_->stats().activates, 68u);
    EXPECT_EQ(ctrl_->stats().rfmIssued, 4u);  // 64 / 16.
    EXPECT_EQ(device_->rfmCount(), 4u);
}

TEST_F(ControllerTest, MithrilPlusSkipsNeedlessRfm)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    mp.adTh = 100;
    mp.plusMode = true;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp));

    // Uniform benign pattern: spread stays below AdTH, so the MRR poll
    // cancels every RFM.
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 8) * 10, 0), 0));
        drain();
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 0u);
    EXPECT_EQ(ctrl_->stats().rfmSkippedByMrr, 4u);
}

TEST_F(ControllerTest, ArrExecutedForReactiveTracker)
{
    build(std::make_unique<EveryNthArr>());
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    EXPECT_EQ(ctrl_->stats().arrExecuted, 4u);
    EXPECT_EQ(device_->preventiveCount(), 4u);
}

TEST_F(ControllerTest, ThrottledActIsDelayed)
{
    trackers::BlockHammerParams bp;
    bp.cbfSize = 256;
    bp.nbl = 8;
    bp.flipTh = 100;
    bp.tCbf = timing_.tREFW;
    bp.tRc = timing_.tRC;
    build(std::make_unique<trackers::BlockHammer>(geom_.totalBanks(),
                                                  bp));

    // Hammer one pair of rows well past NBL, serialized so every
    // request is a fresh ACT that the CBFs observe.
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain(msToTick(40.0));
    }
    EXPECT_EQ(completions_.size(), 40u);
    EXPECT_GT(ctrl_->stats().throttleStalls, 0u);
    // Throttling stretched the run: the last completion lands far
    // beyond the unthrottled time (tDelay is hundreds of us here).
    EXPECT_GT(completions_.back().second, usToTick(10.0));
}

TEST_F(ControllerTest, StableUntilMarksWhatAPassCannotForesee)
{
    // An idle pass foresees the next REF, but not the drain before it;
    // a pass inside the drain foresees nothing past the REF.
    build();
    const Tick drain = timing_.tREFI - 2 * timing_.tRC;
    EXPECT_EQ(ctrl_->service(0), timing_.tREFI);
    EXPECT_EQ(ctrl_->stableUntil(), drain);
    EXPECT_EQ(ctrl_->service(drain), timing_.tREFI);
    EXPECT_EQ(ctrl_->stableUntil(), timing_.tREFI);

    // A waiting throttled ACT may be released early (the tracker's
    // filters rotate), so the pass that saw it is stable nowhere.
    trackers::BlockHammerParams bp;
    bp.cbfSize = 256;
    bp.nbl = 8;
    bp.flipTh = 100;
    bp.tCbf = timing_.tREFW;
    bp.tRc = timing_.tRC;
    build(std::make_unique<trackers::BlockHammer>(geom_.totalBanks(),
                                                  bp));
    Tick now = 0;
    Tick pass = 0;
    for (int i = 0; i < 40 && ctrl_->stats().throttleStalls == 0; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), now));
        while (!ctrl_->idle() && ctrl_->stats().throttleStalls == 0) {
            pass = now;
            now = ctrl_->service(now);
        }
    }
    ASSERT_GT(ctrl_->stats().throttleStalls, 0u);
    ASSERT_FALSE(ctrl_->idle());
    EXPECT_EQ(ctrl_->stableUntil(), pass);
}

TEST_F(ControllerTest, BlissBlacklistsStreakyCore)
{
    // Position of core 1's lone conflict request among 12 streak-y
    // core-0 requests, with and without BLISS.
    auto core1_position = [&](bool use_bliss) {
        ControllerParams params;
        params.useBliss = use_bliss;
        params.blissStreak = 2;
        build(nullptr, params);
        for (std::uint32_t c = 0; c < 12; ++c)
            ASSERT_TRUE(ctrl_->enqueue(
                makeReq(3, 100 + (c / 4) * 30, c % 4, false, 0), 0));
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 900, 0, false, 1), 0));
        drain();
        ASSERT_EQ(completions_.size(), 13u);
        std::size_t pos = 99;
        for (std::size_t i = 0; i < completions_.size(); ++i)
            if (completions_[i].first.coreId == 1)
                pos = i;
        completions_.clear();
        positions_.push_back(pos);
    };
    core1_position(false);
    core1_position(true);
    // BLISS moves the victim core's request forward.
    EXPECT_LT(positions_[1], positions_[0]);
}

TEST_F(ControllerTest, BlissKeepsCoresApartPast64)
{
    // 65 cores: core 64 shares core 0's low six id bits, and must not
    // inherit core 0's blacklist verdict.
    ControllerParams params;
    params.blissStreak = 2;
    build(nullptr, params);
    for (std::uint32_t c = 0; c < 4; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c, false, 0), 0));
    drain();
    ASSERT_EQ(completions_.size(), 4u);  // Core 0 is now blacklisted.

    // Two row misses to idle banks, core 0's queued (and scanned)
    // first: only a blacklisted core 0 lets core 64 go ahead of it.
    ASSERT_TRUE(ctrl_->enqueue(makeReq(5, 200, 0, false, 0), 0));
    ASSERT_TRUE(ctrl_->enqueue(makeReq(7, 300, 0, false, 64), 0));
    drain();
    ASSERT_EQ(completions_.size(), 6u);
    EXPECT_EQ(completions_[4].first.coreId, 64u);
    EXPECT_EQ(completions_[5].first.coreId, 0u);
}

TEST_F(ControllerTest, PerBankRefreshRotatesBanks)
{
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);
    // Run idle for ~2 tREFI: each tREFI must produce banksPerRank
    // REFsb commands for the one rank this channel's controller owns.
    Tick now = 0;
    const Tick end = 2 * timing_.tREFI;
    while (now < end)
        now = ctrl_->service(now);
    const double expect = 2.0 * 1.0 * geom_.banksPerRank;
    EXPECT_NEAR(static_cast<double>(ctrl_->stats().refreshes), expect,
                8.0);
    // Only one bank is ever fenced at a time: demand traffic to other
    // banks proceeds (smoke-checked by serving a request promptly).
    ASSERT_TRUE(ctrl_->enqueue(makeReq(7, 11, 0), now));
    drain(now + usToTick(2.0));
    EXPECT_EQ(completions_.size(), 1u);
}

TEST_F(ControllerTest, RefsbCadenceSpansExactlyTrefi)
{
    // N REFsb commands must span *exactly* tREFI: the integer division
    // tREFI / banksPerRank leaves a remainder that, if ignored, lets
    // the rotation drift early by (tREFI % banksPerRank) ticks per
    // lap. Use a timing where the remainder is maximal (31 of 32) and
    // run 400 laps so the drift — 12,400 ticks — exceeds two full
    // steps and shifts the command count.
    constexpr Tick kStep = 5000;
    timing_.tREFI = 32 * kStep + 31;
    timing_.tREFW = timing_.tREFI * 8192;
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);

    const auto bpr = static_cast<Tick>(geom_.banksPerRank);
    const Tick rem = timing_.tREFI % bpr;
    ASSERT_EQ(timing_.tREFI / bpr, kStep);
    // Same-bank busy (tRFCsb) must clear before the rotation returns
    // to a bank, or service order would perturb the cadence.
    ASSERT_GT(bpr * kStep, device_->timing().tRFCsb);

    Tick now = 0;
    const Tick end = kStep + 400 * timing_.tREFI + kStep / 2;
    while (now < end)
        now = ctrl_->service(now);

    // Exact Bresenham schedule: REFsb #k is due at
    //   step*(k+1) + floor(k*rem/bpr)
    // (global rank 0 has zero stagger). Count how many land before
    // `end`; the drifting pre-fix schedule step*(k+1) counts 2 more.
    std::uint64_t expect = 0;
    for (std::uint64_t k = 0;; ++k) {
        const Tick due = kStep * static_cast<Tick>(k + 1) +
                         static_cast<Tick>(k) * rem / bpr;
        if (due >= end)
            break;
        ++expect;
    }
    EXPECT_EQ(ctrl_->stats().refreshes, expect);
}

TEST_F(ControllerTest, PerBankRefreshKeepsOracleCovered)
{
    ControllerParams params;
    params.perBankRefresh = true;
    build(nullptr, params);
    device_->activate(3, 100, 0);
    device_->precharge(3, device_->bank(3).earliestPre(0));
    // A full tREFW of REFsb rotation refreshes every row of the bank.
    Tick now = timing_.tRP + timing_.tRAS;
    const Tick end = now + timing_.tREFW + timing_.tREFI;
    while (now < end)
        now = ctrl_->service(now);
    EXPECT_DOUBLE_EQ(device_->oracle().disturbance(3, 101), 0.0);
}

TEST_F(ControllerTest, RaaRefDecrementDelaysRfm)
{
    core::MithrilParams mp;
    mp.nEntry = 64;
    mp.rfmTh = 16;
    ControllerParams params;
    params.raaRefDecrement = 8;
    build(std::make_unique<core::Mithril>(geom_.totalBanks(), mp),
          params);

    // 12 serialized ACTs (below RFM_TH), then idle across one tREFI so
    // a REF lands and decrements RAA by 8: 4 more ACTs must NOT yet
    // trigger an RFM (4 + 4 < 16), 12 more must.
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(
            ctrl_->enqueue(makeReq(3, 100 + (i % 2) * 50, 0), 0));
        drain();
    }
    Tick now = 0;
    while (now < timing_.tREFI + timing_.tRFC)
        now = ctrl_->service(now);
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ctrl_->enqueue(
            makeReq(3, 100 + (i % 2) * 50, 0), now));
        drain(now + msToTick(1.0));
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 0u);
    for (int i = 0; i < 12; ++i) {
        ASSERT_TRUE(ctrl_->enqueue(
            makeReq(3, 100 + (i % 2) * 50, 0), now));
        drain(now + msToTick(2.0));
    }
    EXPECT_EQ(ctrl_->stats().rfmIssued, 1u);
}

TEST_F(ControllerTest, ReadLatencyHistogramPopulated)
{
    build();
    for (std::uint32_t c = 0; c < 8; ++c)
        ASSERT_TRUE(ctrl_->enqueue(makeReq(3, 100, c), 0));
    drain();
    const auto &hist = ctrl_->stats().readLatencyNs;
    EXPECT_EQ(hist.totalSamples(), 8u);
    EXPECT_NEAR(hist.mean(), ctrl_->stats().avgReadLatencyNs(), 25.0);
    EXPECT_GT(hist.percentile(0.95), 0.0);
}

TEST_F(ControllerTest, IdleReflectsPendingWork)
{
    build();
    EXPECT_TRUE(ctrl_->idle());
    ctrl_->enqueue(makeReq(0, 1, 0), 0);
    EXPECT_FALSE(ctrl_->idle());
    drain();
    EXPECT_TRUE(ctrl_->idle());
}

TEST_F(ControllerTest, BankIndexStaysConsistent)
{
    // The scheduler's incrementally kept bank index must match a
    // rebuild from the queue and the device after every enqueue and
    // service step. Capacity 2 fills part of one slot word, 64 exactly
    // one, and 100 spills into a second; Mithril's RFMs and both
    // refresh modes exercise the fenced and all-bank REF paths.
    for (std::uint32_t capacity : {2u, 64u, 100u}) {
        for (bool refsb : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                              << " refsb=" << refsb);
            core::MithrilParams mp;
            mp.nEntry = 64;
            mp.rfmTh = 16;
            ControllerParams params;
            params.queueCapacity = capacity;
            params.perBankRefresh = refsb;
            build(std::make_unique<core::Mithril>(geom_.totalBanks(),
                                                  mp),
                  params);
            Rng rng(0x1dec5ull + capacity);
            Tick now = 0;
            std::size_t admitted = 0;
            while (admitted < 3000) {
                for (auto n = rng.nextBounded(4); n > 0; --n) {
                    const auto bank =
                        static_cast<std::uint32_t>(rng.nextBounded(8));
                    const RowId row =
                        rng.nextBounded(3) == 0
                            ? 100
                            : static_cast<RowId>(rng.nextBounded(64));
                    const auto core =
                        static_cast<std::uint32_t>(rng.nextBounded(6));
                    admitted += ctrl_->enqueue(
                        makeReq(bank, row,
                                static_cast<std::uint32_t>(
                                    rng.nextBounded(128)),
                                rng.nextBounded(4) == 0, core),
                        now);
                    ASSERT_TRUE(ctrl_->indexConsistent());
                }
                const Tick next = ctrl_->service(now);
                ASSERT_TRUE(ctrl_->indexConsistent());
                now = std::min<Tick>(
                    next, now + 1 +
                              static_cast<Tick>(
                                  rng.nextBounded(nsToTick(20.0))));
            }
            while (!ctrl_->idle()) {
                now = ctrl_->service(now);
                ASSERT_TRUE(ctrl_->indexConsistent());
            }
            EXPECT_GT(ctrl_->stats().rfmIssued, 0u);
        }
    }
}

// ------------------------------------------------- scheduler pins

/** FNV-1a-64 over little-endian 64-bit words. */
class Fnv64
{
  public:
    void
    mix(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    void
    mixDouble(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

enum class PinTracker
{
    Mithril,
    MithrilPlus,
    EveryNthArr,
    BlockHammer,
};

/**
 * Pins every scheduling decision on the paths the goldens never reach:
 * the REFsb rotation, the DDR5 RAA decrement, ARR work and BlockHammer
 * throttling, under BLISS with a dozen cores, at queue capacities 2,
 * 64 and 100 (100 needs two 64-slot words). One seeded random stream
 * (hot row pairs, row hits, writes, a streaky core 0) runs through one
 * standalone controller per case; the digest covers the ACT stream,
 * every completion (tick, seq) and the final ControllerStats. A
 * scheduler change that claims to be exact must leave every digest
 * unchanged; an intended model change re-pins them.
 */
TEST_F(ControllerTest, SchedulerDecisionsArePinned)
{
    struct Case
    {
        bool perBankRefresh;
        std::uint32_t raaRefDecrement;
        PinTracker tracker;
        std::uint64_t digest;
        std::uint32_t queueCapacity = 64;
    };
    const Case cases[] = {
        {false, 0, PinTracker::Mithril, 0xd98c15403414a543ull},
        {false, 0, PinTracker::MithrilPlus, 0x606aa7f342950b88ull},
        {false, 0, PinTracker::EveryNthArr, 0x44bdb2ba106d4cb4ull},
        {false, 0, PinTracker::BlockHammer, 0x6ff5a6e249af2275ull},
        {false, 8, PinTracker::Mithril, 0xe896617dbd92a6a1ull},
        {false, 8, PinTracker::MithrilPlus, 0xf3b074f2ba60e13bull},
        {false, 8, PinTracker::EveryNthArr, 0x44bdb2ba106d4cb4ull},
        {false, 8, PinTracker::BlockHammer, 0x6ff5a6e249af2275ull},
        {true, 0, PinTracker::Mithril, 0x18b5bbe8f2350fa0ull},
        {true, 0, PinTracker::MithrilPlus, 0x32f24fe927fa61eeull},
        {true, 0, PinTracker::EveryNthArr, 0xf9539021dee3cae9ull},
        {true, 0, PinTracker::BlockHammer, 0x486f6cce97f53139ull},
        {true, 8, PinTracker::Mithril, 0xc8d4a85cb57eb450ull},
        {true, 8, PinTracker::MithrilPlus, 0x10a1c0c58b215f11ull},
        {true, 8, PinTracker::EveryNthArr, 0xf9539021dee3cae9ull},
        {true, 8, PinTracker::BlockHammer, 0x486f6cce97f53139ull},
        {false, 0, PinTracker::Mithril, 0xbbe4dccd40b38c6full, 2},
        {false, 0, PinTracker::BlockHammer, 0x5e23c53e7dd9e63dull, 2},
        {true, 0, PinTracker::Mithril, 0x7f5325542f59b2a5ull, 2},
        {true, 0, PinTracker::BlockHammer, 0xe6a501f42e3b8ed2ull, 2},
        {false, 0, PinTracker::Mithril, 0x0597899ab578d1beull, 100},
        {false, 0, PinTracker::BlockHammer, 0xa0e49376a3dcc704ull, 100},
        {true, 0, PinTracker::Mithril, 0x74f402fd2555a54full, 100},
        {true, 0, PinTracker::BlockHammer, 0x44c48816ea0326b9ull, 100},
    };
    constexpr std::size_t kRequests = 4000;
    constexpr std::uint32_t kCores = 12;

    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "refsb=" << c.perBankRefresh
                     << " raa-dec=" << c.raaRefDecrement
                     << " tracker=" << static_cast<int>(c.tracker)
                     << " capacity=" << c.queueCapacity);
        std::unique_ptr<trackers::RhProtection> tracker;
        core::MithrilParams mp;
        mp.nEntry = 64;
        mp.rfmTh = 16;
        switch (c.tracker) {
          case PinTracker::MithrilPlus:
            mp.plusMode = true;
            mp.adTh = 20;
            [[fallthrough]];
          case PinTracker::Mithril:
            tracker = std::make_unique<core::Mithril>(
                geom_.totalBanks(), mp);
            break;
          case PinTracker::EveryNthArr:
            tracker = std::make_unique<EveryNthArr>();
            break;
          case PinTracker::BlockHammer: {
            // ThrottledActIsDelayed's filters, with a CBF lifetime
            // short enough that throttled ACTs resume and both
            // filters rotate within the stream.
            trackers::BlockHammerParams bp;
            bp.cbfSize = 256;
            bp.nbl = 8;
            bp.flipTh = 100;
            bp.tCbf = usToTick(20.0);
            bp.tRc = timing_.tRC;
            tracker = std::make_unique<trackers::BlockHammer>(
                geom_.totalBanks(), bp);
            break;
          }
        }
        ControllerParams params;
        params.perBankRefresh = c.perBankRefresh;
        params.raaRefDecrement = c.raaRefDecrement;
        params.queueCapacity = c.queueCapacity;
        build(std::move(tracker), params);
        completions_.clear();

        Fnv64 fnv;
        device_->setActObserver([&fnv](BankId b, RowId r, Tick t) {
            fnv.mix(b);
            fnv.mix(r);
            fnv.mix(static_cast<std::uint64_t>(t));
        });

        struct Arrival
        {
            Tick at;
            Request req;
        };
        // Core 0 streams lines in row order (row-hit runs, so BLISS
        // blacklists it); the others hit a hot row pair or random rows.
        std::vector<Arrival> stream;
        Rng rng(0x5eedull);
        Tick at = 0;
        std::uint32_t streamed = 0;
        for (std::size_t i = 0; i < kRequests; ++i) {
            at += static_cast<Tick>(rng.nextBounded(nsToTick(12.0)));
            const bool write = rng.nextBounded(10) < 3;
            if (rng.nextBounded(3) == 0) {
                const std::uint32_t k = streamed++;
                stream.push_back({at, makeReq((k / 8) % 8, 500 + k / 64,
                                              k % 128, write, 0)});
                continue;
            }
            const auto core = 1 + static_cast<std::uint32_t>(
                                      rng.nextBounded(kCores - 1));
            const auto bank =
                static_cast<std::uint32_t>(rng.nextBounded(8));
            const RowId row =
                rng.nextBounded(4) == 0
                    ? 100 + 2 * static_cast<RowId>(rng.nextBounded(2))
                    : static_cast<RowId>(rng.nextBounded(2048));
            const auto col =
                static_cast<std::uint32_t>(rng.nextBounded(128));
            stream.push_back(
                {at, makeReq(bank, row, col, write, core)});
        }

        // The System's service rule: at the controller's own next tick
        // and whenever it receives a request.
        const Tick horizon = msToTick(2.0);
        Tick now = 0;
        Tick next = 0;
        std::size_t admitted = 0;
        for (;;) {
            while (admitted < stream.size() &&
                   stream[admitted].at <= now &&
                   ctrl_->enqueue(stream[admitted].req, now)) {
                ++admitted;
                next = std::min(next, now);
            }
            if (admitted == stream.size() && ctrl_->idle())
                break;
            if (next <= now) {
                next = ctrl_->service(now);
                continue;
            }
            Tick t = next;
            if (admitted < stream.size() &&
                ctrl_->queueDepth() < params.queueCapacity)
                t = std::min(t, stream[admitted].at);
            ASSERT_LE(t, horizon);
            now = t;
        }

        const ControllerStats &s = ctrl_->stats();
        ASSERT_EQ(completions_.size(), kRequests);
        EXPECT_GT(s.refreshes, 0u);
        switch (c.tracker) {
          case PinTracker::Mithril:
            EXPECT_GT(s.rfmIssued, 0u);
            break;
          case PinTracker::MithrilPlus:
            EXPECT_GT(s.rfmIssued, 0u);
            EXPECT_GT(s.rfmSkippedByMrr, 0u);
            break;
          case PinTracker::EveryNthArr:
            EXPECT_GT(s.arrExecuted, 0u);
            break;
          case PinTracker::BlockHammer:
            EXPECT_GT(s.throttleStalls, 0u);
            break;
        }

        for (const auto &[req, tick] : completions_) {
            fnv.mix(static_cast<std::uint64_t>(tick));
            fnv.mix(req.seq);
        }
        for (std::uint64_t x :
             {s.reads, s.writes, s.rowHits, s.rowMisses, s.activates,
              s.precharges, s.refreshes, s.rfmIssued, s.rfmSkippedByMrr,
              s.arrExecuted, s.throttleStalls,
              s.readLatencyNs.totalSamples()})
            fnv.mix(x);
        fnv.mixDouble(s.totalReadLatencyNs);
        fnv.mixDouble(s.readLatencyNs.percentile(0.95));
        fnv.mix(static_cast<std::uint64_t>(now));
        EXPECT_EQ(fnv.value(), c.digest)
            << "digest 0x" << std::hex << fnv.value();
    }
}

} // namespace
} // namespace mithril::mc
