/**
 * @file
 * Ablations of design choices from the Mithril paper (Kim et al.,
 * HPCA 2022; section numbers below refer to it) and of this
 * simulator's memory controller:
 *
 *  1. Wrapping counters vs periodic table reset (Section IV-E): the
 *     reset halves the usable threshold (safe FlipTH doubles for the
 *     same table) and costs extra counter bits.
 *  2. Greedy max-selection vs threshold-buffered selection on RFM
 *     (Section III): measured worst-case disturbance of each policy
 *     under the concentration attack at identical table sizes.
 *  3. BLISS vs plain FR-FCFS under a hammering attacker: scheduling
 *     fairness interacts with protection overheads (the controller's
 *     BLISS blacklisting, see src/mc/controller.hh).
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/bounds.hh"
#include "core/config_solver.hh"
#include "core/mithril.hh"
#include "engine/act_stream_engine.hh"
#include "trackers/graphene.hh"
#include "trackers/rfm_graphene.hh"

using namespace mithril;

namespace
{

double
concentrationDisturbance(trackers::RhProtection *tracker,
                         const dram::Timing &timing,
                         std::uint32_t threshold)
{
    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30),
        tracker);
    const std::uint64_t q = 150;
    const std::uint64_t phase1 = q * threshold;
    engine::CallbackSource source(
        dram::maxActsPerWindow(timing),
        [&](std::uint64_t i) {
            if (i < phase1)
                return static_cast<RowId>(2000 + 2 * (i % q));
            const RowId last =
                static_cast<RowId>(2000 + 2 * (q - 1));
            return (i % 2) ? last : last - 2;
        });
    eng.run(source);
    return eng.oracle().maxDisturbanceEver();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchScale scale = bench::BenchScale::fromArgs(argc, argv);
    bench::rejectArtifacts(scale, "ablation_design");
    bench::rejectParallelKnobs(scale, "ablation_design");
    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();

    // ------------------------------------------------ 1. wrap vs reset
    bench::banner("Ablation 1: wrapping counters vs periodic reset");
    core::ConfigSolver solver(timing, geom);
    TablePrinter wrap({"FlipTH", "wrap Nentry", "wrap KB",
                       "reset-equiv KB", "saving"});
    for (std::uint32_t flip : {6250u, 3125u}) {
        const std::uint32_t rfm_th =
            core::defaultMithrilRfmTh(flip);
        auto cfg = solver.solve(flip, rfm_th);
        if (!cfg)
            continue;
        // A reset-based design must target FlipTH/2 (the aggressor can
        // straddle the reset point) and carry full-width counters
        // sized for the max count in a window.
        auto reset_cfg = solver.solve(flip / 2, rfm_th);
        double reset_kb = 0.0;
        if (reset_cfg) {
            const std::uint32_t full_bits = core::ceilLog2(
                dram::maxActsPerWindow(timing));
            reset_kb = reset_cfg->nEntry *
                       (reset_cfg->rowBits + full_bits) / 8.0 / 1024.0;
        }
        wrap.beginRow()
            .cell(bench::flipThLabel(flip))
            .intCell(cfg->nEntry)
            .num(cfg->tableBytes() / 1024.0, 2)
            .num(reset_kb, 2)
            .cell(reset_kb > 0.0
                      ? formatFixed(reset_kb /
                                        (cfg->tableBytes() / 1024.0),
                                    1) +
                            "x"
                      : "-");
    }
    std::printf("%s", wrap.str().c_str());

    // --------------------------------------- 2. greedy vs buffered RFM
    bench::banner("Ablation 2: greedy selection vs threshold "
                  "buffering (max disturbance, concentration attack)");
    TablePrinter greedy({"policy", "max disturbance", "flips at 10K?"});
    {
        ParamSet params;
        params.set("flip", "10000");
        params.set("ad", "0");
        auto mithril =
            registry::makeScheme("mithril", params, {timing, geom});
        const double d =
            concentrationDisturbance(mithril.get(), timing, 2000);
        greedy.beginRow()
            .cell("greedy (Mithril)")
            .num(d, 0)
            .cell(d >= 10000 ? "YES" : "no");
    }
    {
        trackers::RfmGrapheneParams params;
        params.threshold = 2000;
        params.rfmTh = 64;
        params.nEntry = trackers::Graphene::requiredEntries(
            dram::maxActsPerWindow(timing), params.threshold);
        params.resetInterval = timing.tREFW;
        trackers::RfmGraphene buffered(1, params);
        const double d =
            concentrationDisturbance(&buffered, timing, 2000);
        greedy.beginRow()
            .cell("buffered (RFM-Graphene)")
            .num(d, 0)
            .cell(d >= 10000 ? "YES" : "no");
    }
    std::printf("%s", greedy.str().c_str());

    // ------------------------------------------- 3. BLISS vs FR-FCFS
    bench::banner("Ablation 3: BLISS vs FR-FCFS under a double-sided "
                  "attacker (benign aggregate IPC)");
    TablePrinter bliss({"scheduler", "unprotected IPC",
                        "with Mithril IPC"});
    for (bool use_bliss : {true, false}) {
        sim::ExperimentSpec none =
            scale.makeSpec("mix-high", "double-sided");
        none.sys.mcParams.useBliss = use_bliss;
        none.scheme = "none";
        const sim::RunMetrics base = bench::runOrDie(none);
        sim::ExperimentSpec spec = none;
        spec.scheme = "mithril";
        spec.flipTh = 6250;
        const sim::RunMetrics m = bench::runOrDie(spec);
        bliss.beginRow()
            .cell(use_bliss ? "BLISS" : "FR-FCFS")
            .num(base.aggIpc, 3)
            .num(m.aggIpc, 3);
    }
    std::printf("%s", bliss.str().c_str());

    // ------------------------------------ 4. REFsb vs all-bank REF
    bench::banner("Ablation 4: DDR5 same-bank refresh (REFsb) vs "
                  "all-bank REF (normal workload)");
    TablePrinter refsb({"refresh mode", "aggregate IPC",
                        "avg read latency (ns)", "p95 latency (ns)"});
    for (bool per_bank : {false, true}) {
        sim::ExperimentSpec spec = scale.makeSpec("mix-high");
        spec.sys.mcParams.perBankRefresh = per_bank;
        spec.scheme = "mithril";
        spec.flipTh = 6250;
        const sim::RunMetrics m = bench::runOrDie(spec);
        refsb.beginRow()
            .cell(per_bank ? "REFsb (per-bank)" : "REF (all-bank)")
            .num(m.aggIpc, 3)
            .num(m.avgReadLatencyNs, 1)
            .num(m.p95ReadLatencyNs, 0);
    }
    std::printf("%s", refsb.str().c_str());
    std::printf("\nReading: per-bank refresh removes the rank-wide "
                "drain stall every tREFI,\ntrading it for one busy "
                "bank at a time — the refresh mode Mithril's\n"
                "time-margin argument composes with.\n");
    return 0;
}
