/**
 * @file
 * ShardedActStreamEngine equivalence and determinism tests.
 *
 * The centrepiece mirrors the engine's golden suite one level up: for
 * EVERY registered scheme, the sharded engine at shards in
 * {1, 2, 4, banks} — inline and on thread pools of several sizes —
 * must agree byte-for-byte with the single-threaded ActStreamEngine
 * on aggregate counters, every per-bank counter and clock, the
 * ground-truth oracle, and the tracker's logic-op count. This is what
 * licenses running all engine sweeps sharded, and it covers PARA's
 * and PARFM's per-bank derived-seed path explicitly (a shared RNG
 * would diverge the moment banks run on different shards).
 *
 * The attack source's native shard slices are checked one level
 * down as well: on the paper geometry, every built-in attack's slice
 * must emit exactly the records a BankFilterSource over a fresh copy
 * emits, and a stream whose generators declare no bank must fall
 * back to filtering without changing any result.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "common/failpoint.hh"
#include "common/logging.hh"
#include "engine/sharded_engine.hh"
#include "engine/sources.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "runner/thread_pool.hh"
#include "trackers/graphene.hh"
#include "workload/attacks.hh"

namespace mithril
{
namespace
{

constexpr std::uint32_t kBanks = 16;
constexpr std::uint32_t kFlipTh = 3125;
constexpr std::uint64_t kActs = 120000;

dram::Geometry
testGeometry()
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = kBanks;
    return geom;
}

engine::EngineConfig
testEngineConfig()
{
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = testGeometry();
    cfg.flipTh = kFlipTh;
    return cfg;
}

std::unique_ptr<trackers::RhProtection>
makeTracker(const std::string &scheme)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = kFlipTh;
    return registry::makeScheme(scheme, knobs.toParams(),
                                {dram::ddr5_4800(), testGeometry()});
}

/** The attack stream a run drains. */
struct StreamInput
{
    std::string attack = "multi-sided";
    std::uint32_t sourceBanks = 0;  //!< 0 = every bank of the rank.
    std::uint64_t acts = kActs;
};

std::unique_ptr<engine::ActSource>
makeAttackStream(const StreamInput &in,
                 const dram::Geometry &geometry = testGeometry())
{
    ParamSet params;
    params.set("attack", in.attack);
    params.set("source-banks", std::to_string(in.sourceBanks));
    return registry::makeActSource(
        "attack", params,
        {dram::ddr5_4800(), geometry, kFlipTh, /*seed=*/7});
}

/** Everything both engines must agree on, byte for byte. */
struct Outcome
{
    std::uint64_t acts = 0, refs = 0, rfms = 0, preventive = 0,
                  stalls = 0;
    double maxDisturbance = 0.0;
    std::uint64_t bitFlips = 0, flippedRows = 0, logicOps = 0;
    std::vector<std::uint64_t> bankActs, bankPrev;
    std::vector<Tick> bankNow;

    bool
    operator==(const Outcome &o) const
    {
        return acts == o.acts && refs == o.refs && rfms == o.rfms &&
               preventive == o.preventive && stalls == o.stalls &&
               maxDisturbance == o.maxDisturbance &&
               bitFlips == o.bitFlips &&
               flippedRows == o.flippedRows &&
               logicOps == o.logicOps && bankActs == o.bankActs &&
               bankPrev == o.bankPrev && bankNow == o.bankNow;
    }
};

std::ostream &
operator<<(std::ostream &os, const Outcome &o)
{
    return os << "acts=" << o.acts << " refs=" << o.refs
              << " rfms=" << o.rfms << " prev=" << o.preventive
              << " stalls=" << o.stalls
              << " maxDist=" << o.maxDisturbance
              << " flips=" << o.bitFlips
              << " flippedRows=" << o.flippedRows
              << " logicOps=" << o.logicOps;
}

Outcome
runSingle(const std::string &scheme, bool honor_throttle,
          engine::ActSource &source, std::uint64_t acts)
{
    auto tracker = makeTracker(scheme);
    engine::EngineConfig cfg = testEngineConfig();
    cfg.honorThrottle = honor_throttle;
    engine::ActStreamEngine eng(cfg, tracker.get());
    eng.run(source, acts);

    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.refs();
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.stalls = eng.throttleStalls();
    o.maxDisturbance = eng.oracle().maxDisturbanceEver();
    o.bitFlips = eng.oracle().bitFlips();
    o.flippedRows = eng.oracle().flippedRows();
    o.logicOps = tracker ? tracker->logicOps() : 0;
    for (BankId b = 0; b < kBanks; ++b) {
        o.bankActs.push_back(eng.actsAt(b));
        o.bankPrev.push_back(eng.preventiveRefreshesAt(b));
        o.bankNow.push_back(eng.now(b));
    }
    return o;
}

Outcome
runSingle(const std::string &scheme, bool honor_throttle = false,
          const StreamInput &in = {})
{
    auto source = makeAttackStream(in);
    return runSingle(scheme, honor_throttle, *source, in.acts);
}

Outcome
runSharded(const std::string &scheme, std::uint32_t shards,
           runner::ThreadPool *pool, bool honor_throttle,
           const engine::ShardedActStreamEngine::StreamFactory &stream,
           std::uint64_t acts)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    cfg.engine.honorThrottle = honor_throttle;
    cfg.shards = shards;
    cfg.pool = pool;
    engine::ShardedActStreamEngine eng(
        cfg, [&] { return makeTracker(scheme); });
    eng.run(stream, acts);

    Outcome o;
    o.acts = eng.acts();
    o.refs = eng.refs();
    o.rfms = eng.rfms();
    o.preventive = eng.preventiveRefreshes();
    o.stalls = eng.throttleStalls();
    o.maxDisturbance = eng.maxDisturbanceEver();
    o.bitFlips = eng.bitFlips();
    o.flippedRows = eng.flippedRows();
    o.logicOps = eng.logicOps();
    for (BankId b = 0; b < kBanks; ++b) {
        o.bankActs.push_back(eng.actsAt(b));
        o.bankPrev.push_back(eng.preventiveRefreshesAt(b));
        o.bankNow.push_back(eng.now(b));
    }
    return o;
}

Outcome
runSharded(const std::string &scheme, std::uint32_t shards,
           runner::ThreadPool *pool = nullptr,
           bool honor_throttle = false, const StreamInput &in = {})
{
    return runSharded(
        scheme, shards, pool, honor_throttle,
        [&] { return makeAttackStream(in); }, in.acts);
}

class ShardedEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ShardedEquivalence, ShardCountNeverChangesResults)
{
    const std::string scheme = GetParam();
    // Every bank of the rank over a divisible budget, and 7 banks
    // over a budget 7 does not divide: the first 120001 % 7
    // generators own one record more of the prefix.
    for (const StreamInput &in :
         {StreamInput{}, StreamInput{"multi-sided", 7, 120001}}) {
        const Outcome single = runSingle(scheme, false, in);
        EXPECT_EQ(single.acts, in.acts) << scheme;

        for (std::uint32_t shards : {1u, 2u, 4u, kBanks}) {
            const Outcome sharded =
                runSharded(scheme, shards, nullptr, false, in);
            EXPECT_TRUE(sharded == single)
                << scheme << " source-banks=" << in.sourceBanks
                << " acts=" << in.acts << " shards=" << shards
                << "\n  sharded: " << sharded
                << "\n  single:  " << single;
        }
    }
}

TEST_P(ShardedEquivalence, PoolSizeNeverChangesResults)
{
    const std::string scheme = GetParam();
    const Outcome inline_run = runSharded(scheme, 4);
    for (unsigned threads : {1u, 2u, 5u}) {
        runner::ThreadPool pool(threads);
        const Outcome pooled = runSharded(scheme, 4, &pool);
        EXPECT_TRUE(pooled == inline_run)
            << scheme << " threads=" << threads
            << "\n  pooled: " << pooled
            << "\n  inline: " << inline_run;
    }
}

std::vector<std::string>
allSchemes()
{
    return registry::schemeRegistry().names();
}

std::string
schemeCaseName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (auto &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSchemes, ShardedEquivalence,
                         ::testing::ValuesIn(allSchemes()),
                         schemeCaseName);

// ------------------------------------------------ targeted checks

TEST(ShardedEngine, ParaDerivedSeedsAreRunToRunDeterministic)
{
    // Two identical sharded runs of the probabilistic scheme must be
    // bit-equal (no wall-clock or address-based seeding anywhere),
    // and a different base seed must actually change the draws.
    const Outcome a = runSharded("para", 4);
    const Outcome b = runSharded("para", 4);
    EXPECT_TRUE(a == b) << "\n  a: " << a << "\n  b: " << b;
    EXPECT_GT(a.preventive, 0u);
}

TEST(ShardedEngine, ThrottledBlockHammerShardsExactly)
{
    runner::ThreadPool pool(3);
    const StreamInput in{"double-sided"};
    const Outcome single = runSingle("blockhammer", true, in);
    const Outcome sharded =
        runSharded("blockhammer", 4, &pool, true, in);
    EXPECT_TRUE(sharded == single)
        << "\n  sharded: " << sharded << "\n  single:  " << single;
    EXPECT_GT(single.stalls, 0u);
}

TEST(ShardedEngine, MergeTrackerStatsReducesCrossBankCounters)
{
    // Graphene's ARR count lives in the tracker, not the engine: the
    // per-shard instances must fold into exactly the single-tracker
    // total through the mergeStatsFrom() join protocol.
    auto single_tracker = makeTracker("graphene");
    {
        engine::ActStreamEngine eng(testEngineConfig(),
                                    single_tracker.get());
        auto source = makeAttackStream({"double-sided"});
        eng.run(*source, kActs);
    }
    const auto &single =
        dynamic_cast<const trackers::Graphene &>(*single_tracker);
    ASSERT_GT(single.arrCount(), 0u);

    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    cfg.shards = 4;
    engine::ShardedActStreamEngine eng(
        cfg, [] { return makeTracker("graphene"); });
    eng.run([] { return makeAttackStream({"double-sided"}); }, kActs);

    auto merged = makeTracker("graphene");
    eng.mergeTrackerStatsInto(*merged);
    const auto &m =
        dynamic_cast<const trackers::Graphene &>(*merged);
    EXPECT_EQ(m.arrCount(), single.arrCount());
    EXPECT_EQ(merged->logicOps(), single_tracker->logicOps());
}

TEST(ShardedEngine, ReusesAmbientPoolInsideSweepWorkers)
{
    // A sharded run issued from inside a pool task (a sweep job that
    // shards its own work) must reuse that pool through
    // ThreadPool::current() — the helping parallelFor makes this safe
    // — and still produce the exact single-threaded result.
    const Outcome expected = runSharded("mithril", 4);
    runner::ThreadPool pool(2);
    std::vector<Outcome> got(3);
    pool.parallelFor(got.size(), [&](std::size_t i) {
        ASSERT_EQ(runner::ThreadPool::current(), &pool);
        got[i] = runSharded("mithril", 4);  // cfg.pool = nullptr.
    });
    for (const Outcome &o : got)
        EXPECT_TRUE(o == expected)
            << "\n  got:      " << o << "\n  expected: " << expected;
}

TEST(BankFilterSource, SlicesPartitionTheBoundedPrefix)
{
    // Two complementary slices of the same stream must together carry
    // exactly the first `budget` records, each bank only on its side.
    auto make_stream = [] {
        return std::make_unique<engine::CallbackSource>(
            /*count=*/~0ull,
            [](std::uint64_t i) {
                return static_cast<RowId>(1000 + i % 7);
            });
    };
    // CallbackSource emits bank 0 only: the low slice sees all
    // records, the high slice none — and both stop at the budget.
    engine::BankFilterSource low(make_stream(), 0, 8, 5000);
    engine::BankFilterSource high(make_stream(), 8, 16, 5000);

    engine::ActBatch batch;
    std::uint64_t low_total = 0;
    while (std::size_t n = low.fill(batch, 4096)) {
        low_total += n;
        batch.clear();
    }
    std::uint64_t high_total = 0;
    while (std::size_t n = high.fill(batch, 4096)) {
        high_total += n;
        batch.clear();
    }
    EXPECT_EQ(low_total, 5000u);
    EXPECT_EQ(high_total, 0u);
}

TEST(ShardedEngine, ShardRangesPartitionBanks)
{
    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    for (std::uint32_t shards : {1u, 3u, 5u, kBanks, kBanks + 9}) {
        cfg.shards = shards;
        engine::ShardedActStreamEngine eng(cfg, nullptr);
        BankId next = 0;
        for (std::uint32_t s = 0; s < eng.shardCount(); ++s) {
            const auto [lo, hi] = eng.shardRange(s);
            EXPECT_EQ(lo, next);
            EXPECT_GT(hi, lo);
            next = hi;
        }
        EXPECT_EQ(next, kBanks);
        for (BankId b = 0; b < kBanks; ++b) {
            const auto [lo, hi] = eng.shardRange(eng.shardFor(b));
            EXPECT_TRUE(b >= lo && b < hi) << "bank " << b;
        }
    }
}

// ------------------------------------------- attack source slicing

using Records = std::vector<std::tuple<BankId, RowId, Tick>>;

/** Up to `max` records of a source, pulled in odd-sized fills so a
 *  slice must resume mid-rotation. */
Records
drain(engine::ActSource &source, std::uint64_t max = ~0ull)
{
    Records out;
    engine::ActBatch batch;
    while (out.size() < max) {
        batch.clear();
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(777, max - out.size()));
        if (source.fill(batch, want) == 0)
            break;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const engine::ActRecord r = batch.record(i);
            out.emplace_back(r.bank, r.row, r.tick);
        }
    }
    return out;
}

TEST(AttackSlice, NativeSliceEqualsFilteredFreshCopy)
{
    // The paper geometry: 2 channels x 32 banks. The attacks aim at
    // channel 0, so [32, 64) holds no attacked bank.
    const dram::Geometry geom = dram::paperGeometry();
    ASSERT_EQ(geom.totalBanks(), 64u);
    const std::vector<std::pair<BankId, BankId>> ranges = {
        {0, 64}, {0, 16}, {16, 32}, {3, 5}, {32, 64}};
    for (const std::string &attack :
         registry::attackRegistry().names()) {
        if (attack == "none")
            continue;
        for (std::uint32_t banks : {1u, 7u, 32u}) {
            const StreamInput in{attack, banks};
            auto probe = makeAttackStream(in, geom);
            for (std::uint64_t budget : {0u, 1u, 6u, 7u, 8u, 120001u}) {
                for (const auto &[lo, hi] : ranges) {
                    auto native = probe->shardSlice(lo, hi, budget);
                    ASSERT_NE(native, nullptr)
                        << attack << " has no native slice";
                    engine::BankFilterSource filtered(
                        makeAttackStream(in, geom), lo, hi, budget);
                    const Records want = drain(filtered);
                    EXPECT_EQ(drain(*native), want)
                        << attack << " source-banks=" << banks
                        << " budget=" << budget << " [" << lo << ","
                        << hi << ")";
                    if (lo == 0 && hi == 64) {
                        EXPECT_EQ(want.size(), budget) << attack;
                    }
                }
            }
        }
    }
}

TEST(AttackSlice, SlicingLeavesTheProbeUndisturbed)
{
    const StreamInput in{"multi-sided", 7};
    auto probe = makeAttackStream(in);
    for (BankId lo : {0u, 2u, 4u}) {
        auto slice = probe->shardSlice(lo, lo + 3, 5000);
        ASSERT_NE(slice, nullptr);
        EXPECT_FALSE(drain(*slice).empty());
    }
    auto fresh = makeAttackStream(in);
    EXPECT_EQ(drain(*probe, 50000), drain(*fresh, 50000));
}

/** Forwards a generator record by record, declaration included, so
 *  the source drains it on the per-record decode path. */
class PerRecordAttack : public workload::TraceGenerator
{
  public:
    explicit PerRecordAttack(
        std::unique_ptr<workload::TraceGenerator> inner)
        : inner_(std::move(inner))
    {
    }

    std::optional<workload::TraceRecord> next() override
    {
        return inner_->next();
    }

    std::string name() const override { return inner_->name(); }

    std::optional<workload::BankCoord> targetBank() const override
    {
        return inner_->targetBank();
    }

  private:
    std::unique_ptr<workload::TraceGenerator> inner_;
};

/** The attack source's stream of `attack` on `banks` banks; with
 *  `per_record`, every generator hides behind a PerRecordAttack. */
std::unique_ptr<engine::ActSource>
makeAttackLanes(const std::string &attack, std::uint32_t banks,
                bool per_record)
{
    return std::make_unique<engine::MultiBankSource>(
        attack, dram::paperGeometry(), banks,
        [attack, per_record](std::uint32_t b, const mc::AddressMap &map)
            -> std::unique_ptr<workload::TraceGenerator> {
            ParamSet params;
            params.set("attack-bank", std::to_string(b));
            auto gen = registry::makeAttack(
                attack, params,
                {map, kFlipTh, /*benignCores=*/0, /*seed=*/7, {}});
            if (per_record)
                return std::make_unique<PerRecordAttack>(std::move(gen));
            return gen;
        });
}

TEST(AttackSlice, RowHookLanesEqualPerRecordLanes)
{
    // The row-hook lanes (buffered fillRows, no decode) must deliver
    // the stream the per-record path decodes, whole and sliced,
    // including budgets that end lanes mid-buffer.
    const std::vector<std::pair<BankId, BankId>> ranges = {
        {0, 64}, {3, 5}, {16, 32}};
    for (const std::string &attack :
         registry::attackRegistry().names()) {
        if (attack == "none")
            continue;
        for (std::uint32_t banks : {1u, 7u, 32u}) {
            const std::string where =
                attack + " source-banks=" + std::to_string(banks);
            auto fast = makeAttackLanes(attack, banks, false);
            auto slow = makeAttackLanes(attack, banks, true);
            EXPECT_EQ(drain(*fast, 50001), drain(*slow, 50001))
                << where;
            for (std::uint64_t budget : {1u, 7u, 300u, 120001u}) {
                for (const auto &[lo, hi] : ranges) {
                    auto fast_slice = fast->shardSlice(lo, hi, budget);
                    auto slow_slice = slow->shardSlice(lo, hi, budget);
                    ASSERT_NE(fast_slice, nullptr) << where;
                    ASSERT_NE(slow_slice, nullptr) << where;
                    EXPECT_EQ(drain(*fast_slice), drain(*slow_slice))
                        << where << " budget=" << budget << " [" << lo
                        << "," << hi << ")";
                }
            }
        }
    }
}

/** Hammers like a built-in attack but declares no bank — the shape
 *  of an out-of-tree generator that opts out of native slicing. */
class UndeclaredAttack : public workload::TraceGenerator
{
  public:
    explicit UndeclaredAttack(workload::AttackTarget target)
        : inner_(target)
    {
    }

    std::optional<workload::TraceRecord> next() override
    {
        return inner_.next();
    }

    std::string name() const override { return "undeclared"; }

  private:
    workload::MultiSidedAttack inner_;
};

std::unique_ptr<engine::ActSource>
makeUndeclaredStream()
{
    return std::make_unique<engine::MultiBankSource>(
        "undeclared", testGeometry(), 7,
        [](std::uint32_t b, const mc::AddressMap &map) {
            workload::AttackTarget target;
            target.map = &map;
            target.bank = b;
            return std::make_unique<UndeclaredAttack>(target);
        });
}

TEST(AttackSlice, UndeclaredGeneratorsFallBackToFiltering)
{
    auto probe = makeUndeclaredStream();
    EXPECT_EQ(probe->shardSlice(0, kBanks, kActs), nullptr);

    auto single_source = makeUndeclaredStream();
    const Outcome single =
        runSingle("mithril", false, *single_source, 120001);
    EXPECT_EQ(single.acts, 120001u);
    for (std::uint32_t shards : {2u, 4u, kBanks}) {
        const Outcome sharded = runSharded(
            "mithril", shards, nullptr, false, makeUndeclaredStream,
            120001);
        EXPECT_TRUE(sharded == single)
            << "shards=" << shards << "\n  sharded: " << sharded
            << "\n  single:  " << single;
    }
}

/** Declares its target bank, then breaks the promise that goes with
 *  it: aims one bank off, or ends after a few records. It wraps a
 *  built-in attack rather than deriving from one, so its lanes take
 *  the per-record path, which checks every record. */
class DishonestAttack : public workload::TraceGenerator
{
  public:
    DishonestAttack(const workload::AttackTarget &target, bool ends)
        : inner_(target), ends_(ends)
    {
    }

    std::optional<workload::BankCoord> targetBank() const override
    {
        auto at = inner_.targetBank();
        if (!ends_)
            at->bank += 1;
        return at;
    }

    std::optional<workload::TraceRecord> next() override
    {
        if (ends_ && produced_ >= 10)
            return std::nullopt;
        ++produced_;
        return inner_.next();
    }

    std::string name() const override { return "dishonest"; }

  private:
    workload::DoubleSidedAttack inner_;
    bool ends_;
    std::uint64_t produced_ = 0;
};

TEST(AttackSlice, BrokenDeclarationsAreCaught)
{
    for (bool ends : {false, true}) {
        engine::MultiBankSource source(
            "dishonest", testGeometry(), 2,
            [ends](std::uint32_t b, const mc::AddressMap &map) {
                workload::AttackTarget target;
                target.map = &map;
                target.bank = b;
                return std::make_unique<DishonestAttack>(target, ends);
            });
        setLogThrowOnFatal(true);
        EXPECT_THROW(drain(source), std::runtime_error)
            << (ends ? "ended" : "aimed off its bank");
        setLogThrowOnFatal(false);
    }
}

TEST(AttackSlice, BadAttackSourceSpecsAreRejected)
{
    const registry::SourceContext ctx{
        dram::ddr5_4800(), dram::paperGeometry(), kFlipTh, 7};
    EXPECT_THROW(
        registry::makeActSource(
            "attack", ParamSet::fromString("source-banks=33"), ctx),
        registry::SpecError);
    EXPECT_THROW(
        registry::makeActSource(
            "attack", ParamSet::fromString("attack-bank=3"), ctx),
        registry::SpecError);
}

TEST(ShardedEngine, InlineJoinExcludesTheOtherShards)
{
    // Inline shards run back to back, so the wall of the whole run
    // is the SUM of the shard walls; only what lies beyond that sum
    // is join overhead. A 50 ms stall per shard makes the difference
    // unmistakable.
    engine::ShardedEngineConfig cfg;
    cfg.engine = testEngineConfig();
    cfg.shards = 2;
    cfg.telemetry.phases = true;
    engine::ShardedActStreamEngine eng(cfg, nullptr);
    failpoint::armFromSpec("engine.shard-dispatch:stall:ms=50");
    eng.run([] { return makeAttackStream({}); }, 1000);
    failpoint::disarmAll();
    ASSERT_GE(eng.shardWallSec(1), 0.05);
    EXPECT_LT(eng.joinSec(), eng.shardWallSec(1) / 4)
        << "join " << eng.joinSec() << " s, shard wall "
        << eng.shardWallSec(1) << " s";
}

} // namespace
} // namespace mithril
