/**
 * @file
 * Tests for the simulation layer: event queue ordering, the ACT-level
 * harness, and full-system integration runs for every scheme.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/random.hh"
#include "core/mithril.hh"
#include "engine/act_stream_engine.hh"
#include "registry/scheme_registry.hh"
#include "registry/workload_registry.hh"
#include "sim/event_queue.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/attacks.hh"
#include "workload/spec_like.hh"

namespace mithril::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(100, [&order, i](Tick) { order.push_back(i); });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&](Tick t) {
        ++fired;
        q.schedule(t + 1, [&](Tick) { ++fired; });
    });
    while (!q.empty())
        q.popAndRun();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2);
    EXPECT_EQ(q.nextTime(), kTickMax);
}

TEST(SingleBankEngine, RefreshCadenceMatchesTrefi)
{
    const dram::Timing timing = dram::ddr5_4800();
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30), nullptr);
    // Enough ACTs to span ~10 tREFI.
    const auto acts = static_cast<std::uint64_t>(
        10.0 * static_cast<double>(timing.tREFI) /
        static_cast<double>(timing.tRC));
    engine::CallbackSource source(acts, [](std::uint64_t i) {
        return static_cast<RowId>(i % 100);
    });
    eng.run(source);
    EXPECT_NEAR(static_cast<double>(eng.refs()), 10.0, 2.0);
    EXPECT_EQ(eng.acts(), acts);
}

TEST(SingleBankEngine, RfmCadenceMatchesTracker)
{
    core::MithrilParams mp;
    mp.nEntry = 32;
    mp.rfmTh = 64;
    core::Mithril tracker(1, mp);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 1u << 30),
        &tracker);
    engine::CallbackSource source(6400, [](std::uint64_t i) {
        return static_cast<RowId>(i % 7);
    });
    eng.run(source);
    EXPECT_EQ(eng.rfms(), 100u);
    EXPECT_EQ(eng.preventiveRefreshes(), 100u);
}

TEST(SingleBankEngine, UnprotectedHammerFlipsBits)
{
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(dram::ddr5_4800(), 5000),
        nullptr);
    engine::CallbackSource source(20000, [](std::uint64_t i) {
        return 1000 + 2 * static_cast<RowId>(i % 2);
    });
    eng.run(source);
    EXPECT_GT(eng.oracle().bitFlips(), 0u);
    EXPECT_GE(eng.oracle().maxDisturbanceEver(), 5000.0);
}

// ----------------------------------------------------- System runs

ExperimentSpec
smallRun(const std::string &scheme)
{
    ExperimentSpec spec;
    spec.scheme = scheme;
    spec.workload = "mix-high";
    spec.flipTh = 6250;
    spec.cores = 4;
    spec.instrPerCore = 20000;
    return spec;
}

/** Every simulated RunMetrics field on one line, doubles at %.17g. */
std::string
render(const RunMetrics &m)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "ipc=%.17g energy=%.17g ticks=%lld acts=%llu reads=%llu "
        "writes=%llu rfm=%llu skip=%llu arr=%llu prev=%llu "
        "stalls=%llu maxd=%.17g flips=%llu lat=%.17g p95=%.17g "
        "bytes=%.17g telemetry=%zu",
        m.aggIpc, m.energyPj, static_cast<long long>(m.simTicks),
        static_cast<unsigned long long>(m.acts),
        static_cast<unsigned long long>(m.reads),
        static_cast<unsigned long long>(m.writes),
        static_cast<unsigned long long>(m.rfmIssued),
        static_cast<unsigned long long>(m.rfmSkippedMrr),
        static_cast<unsigned long long>(m.arrExecuted),
        static_cast<unsigned long long>(m.preventiveRefreshes),
        static_cast<unsigned long long>(m.throttleStalls),
        m.maxDisturbance, static_cast<unsigned long long>(m.bitFlips),
        m.avgReadLatencyNs, m.p95ReadLatencyNs, m.trackerBytesPerBank,
        m.telemetry.size());
    return buf;
}

TEST(SystemIntegration, BaselineRunProducesTraffic)
{
    const RunMetrics m = runExperiment(smallRun("none"));
    EXPECT_GT(m.aggIpc, 0.0);
    EXPECT_GT(m.acts, 0u);
    EXPECT_GT(m.reads, 0u);
    EXPECT_GT(m.energyPj, 0.0);
    EXPECT_EQ(m.rfmIssued, 0u);
    EXPECT_EQ(m.bitFlips, 0u);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const RunMetrics a = runExperiment(smallRun("mithril"));
    const RunMetrics b = runExperiment(smallRun("mithril"));
    EXPECT_DOUBLE_EQ(a.aggIpc, b.aggIpc);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.simTicks, b.simTicks);
}

class SystemSchemes : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SystemSchemes, RunsCleanlyWithModestOverhead)
{
    const RunMetrics base = runExperiment(smallRun("none"));
    const RunMetrics m = runExperiment(smallRun(GetParam()));

    EXPECT_GT(m.aggIpc, 0.0);
    const double rel = relativePerf(m, base);
    EXPECT_GT(rel, 70.0) << GetParam();
    EXPECT_LT(rel, 115.0) << GetParam();
    EXPECT_EQ(m.bitFlips, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SystemSchemes,
    ::testing::Values("mithril", "mithril+", "parfm", "blockhammer",
                      "para", "graphene", "twice", "cbt"));

TEST(SystemIntegration, MithrilIssuesRfmUnderAttack)
{
    ExperimentSpec spec = smallRun("mithril");
    spec.attack = "double-sided";
    spec.instrPerCore = 100000;
    spec.rfmTh = 32;  // Short run: keep the RAA epoch small.
    const RunMetrics m = runExperiment(spec);
    EXPECT_GT(m.rfmIssued, 0u);
    EXPECT_EQ(m.bitFlips, 0u);
}

TEST(SystemIntegration, MithrilPlusSkipsRfmOnBenignWork)
{
    ExperimentSpec spec = smallRun("mithril+");
    spec.instrPerCore = 100000;
    spec.rfmTh = 16;  // Short run: keep the RAA epoch small.
    const RunMetrics m = runExperiment(spec);
    // Benign traffic: most RAA epochs end in an MRR skip.
    EXPECT_GT(m.rfmSkippedMrr, 0u);
    EXPECT_GT(m.rfmSkippedMrr, m.rfmIssued);
}

TEST(SystemIntegration, BlockHammerThrottlesAttacker)
{
    ExperimentSpec spec = smallRun("blockhammer");
    spec.attack = "double-sided";
    // One benign core and a long budget: the attacker needs ~50us of
    // hammering for its pair to cross the blacklist threshold.
    spec.cores = 2;
    spec.instrPerCore = 600000;
    // Low FlipTH -> low NBL (490).
    spec.flipTh = 1500;
    const RunMetrics m = runExperiment(spec);
    EXPECT_GT(m.throttleStalls, 0u);

    // No golden throttles: pin every simulated result so a scheduler
    // change that claims exactness is checked on the throttle path
    // too.
    EXPECT_EQ(render(m),
              "ipc=1.9910427279469045 energy=7638256 ticks=83776176 "
              "acts=6136 reads=18124 writes=6249 rfm=0 skip=0 arr=0 "
              "prev=0 stalls=16 maxd=980 flips=0 "
              "lat=102.28341690576104 p95=320 bytes=21248 "
              "telemetry=0");
}

TEST(SystemIntegration, PerBankRefreshRunIsPinned)
{
    // REFsb falls due every tREFI/banksPerRank, so this run keeps
    // crossing refresh drains; with the DDR5 RAA decrement on, no
    // golden reaches it. Pinned like BlockHammerThrottlesAttacker.
    ExperimentSpec spec = smallRun("mithril");
    spec.attack = "multi-sided";
    spec.flipTh = 1500;
    spec.instrPerCore = 50000;
    spec.sys.mcParams.perBankRefresh = true;
    spec.sys.mcParams.raaRefDecrement = 8;
    const RunMetrics m = runExperiment(spec);
    EXPECT_EQ(render(m),
              "ipc=2.0053857822186711 energy=2404680 ticks=24240499 "
              "acts=3880 reads=3699 writes=1416 rfm=15 skip=0 arr=0 "
              "prev=0 stalls=0 maxd=24 flips=0 "
              "lat=307.15107866991093 p95=1020 bytes=5386.5 "
              "telemetry=0");
}

/** Uncached random reads confined to one channel. */
class OneChannelReads : public workload::TraceGenerator
{
  public:
    OneChannelReads(const mc::AddressMap &map, std::uint32_t channel)
        : map_(map), channel_(channel)
    {
    }
    std::optional<workload::TraceRecord>
    next() override
    {
        workload::TraceRecord rec;
        rec.gap = 1 + rng_.nextBounded(40);
        rec.uncached = true;
        rec.addr = map_.compose(channel_, 0,
                                static_cast<std::uint32_t>(
                                    rng_.nextBounded(32)),
                                static_cast<RowId>(rng_.nextBounded(4096)),
                                static_cast<std::uint32_t>(
                                    rng_.nextBounded(128)));
        return rec;
    }
    std::string name() const override { return "one-channel"; }

  private:
    const mc::AddressMap &map_;
    std::uint32_t channel_;
    Rng rng_{5};
};

TEST(SystemIntegration, ThrottledLaneIsServicedAtEveryEvent)
{
    // The attacker's throttled ACTs wait alone on channel 0 while a
    // benign core keeps channel 1 (and the event queue) busy. A short
    // tREFW gives BlockHammer a 200us CBF lifetime, so its filters
    // rotate mid-run, and a rotation lifts a delay before its tick:
    // the idle lane must still be serviced at the next event. The
    // pinned values are also what servicing every lane after every
    // event gives.
    SystemConfig cfg;
    cfg.flipTh = 1500;
    cfg.timing.tREFW = usToTick(200.0);
    ParamSet params;
    params.set("flip", "1500");
    const registry::SchemeContext ctx{cfg.timing, cfg.geometry};
    System system(cfg, [&] {
        return registry::makeScheme("blockhammer", params, ctx);
    });
    mc::AddressMap map(cfg.geometry);
    workload::AttackTarget target;
    target.map = &map;
    target.bank = 7;
    cpu::CoreParams attacker;
    attacker.instrBudget = ~0ull;
    attacker.excluded = true;
    system.addCore(attacker,
                   std::make_unique<workload::DoubleSidedAttack>(target));
    cpu::CoreParams benign;
    benign.instrBudget = 800000;
    system.addCore(benign, std::make_unique<OneChannelReads>(map, 1));
    system.run();

    const mc::ControllerStats &ch0 = system.controller(0).stats();
    const mc::ControllerStats &ch1 = system.controller(1).stats();
    EXPECT_EQ(ch0.activates, 2340u);
    EXPECT_EQ(ch0.reads, 9193u);
    EXPECT_EQ(ch0.throttleStalls, 5097u);
    EXPECT_EQ(ch1.activates, 37341u);
    EXPECT_EQ(ch1.reads, 37171u);
    EXPECT_EQ(system.now(), 184312432);
}

TEST(SystemIntegration, UnprotectedLongAttackFlipsBits)
{
    // Horizon-bound attack-only run: without protection the oracle
    // must observe flips within a fraction of tREFW.
    SystemConfig cfg;
    cfg.flipTh = 2000;
    cfg.horizon = msToTick(2.0);
    System system(cfg, nullptr);

    mc::AddressMap map(cfg.geometry);
    workload::AttackTarget target;
    target.map = &map;
    target.bank = 3;
    cpu::CoreParams params;
    params.instrBudget = ~0ull;
    params.excluded = true;
    system.addCore(params,
                   std::make_unique<workload::DoubleSidedAttack>(
                       target));
    system.run();
    EXPECT_GT(system.bitFlips(), 0u);
}

TEST(SystemIntegration, ExportStatsCoversComponents)
{
    SystemConfig cfg;
    cfg.flipTh = 6250;
    System system(cfg, nullptr);
    cpu::CoreParams params;
    params.instrBudget = 5000;
    system.addCore(params, registry::makeWorkload("mix-high", ParamSet(),
                                                  {0, 1, 1}));
    system.run();

    telemetry::MetricSheet sheet;
    system.exportStats(sheet);
    EXPECT_GT(sheet.counterValue("mc.reads"), 0u);
    EXPECT_GT(sheet.counterValue("dram.acts"), 0u);
    EXPECT_GT(sheet.counterValue("cache.misses"), 0u);
    EXPECT_GT(sheet.counterValue("core0.instructions"), 4999u);
    EXPECT_EQ(sheet.counterValue("oracle.bit_flips"), 0u);
    EXPECT_GT(sheet.gaugeValue("core0.ipc"), 0.0);
    // The mc.* block carries the names runExperiment's telemetry
    // uses.
    EXPECT_EQ(sheet.counterValue("mc.acts"), system.stats().activates);
    EXPECT_NE(sheet.dump().find("mc.row_hits"), std::string::npos);
}

TEST(SystemIntegration, EnergyOverheadHelpers)
{
    RunMetrics base, value;
    base.aggIpc = 10.0;
    base.energyPj = 100.0;
    value.aggIpc = 9.5;
    value.energyPj = 104.0;
    EXPECT_DOUBLE_EQ(relativePerf(value, base), 95.0);
    EXPECT_DOUBLE_EQ(energyOverheadPct(value, base), 4.0);
}

} // namespace
} // namespace mithril::sim
