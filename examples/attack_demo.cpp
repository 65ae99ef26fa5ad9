/**
 * @file
 * Attack demo: fire the full Row Hammer attack battery at a chosen
 * protection scheme on the command-level harness and report the
 * ground-truth oracle's verdict for each pattern.
 *
 * Usage: attack_demo [scheme=mithril] [flip_th=6250] [rfm_th=0]
 *                    [ad_th=200] [windows=2]
 *
 * Try scheme=none to watch the bit flips happen, or
 * scheme=rfm-graphene to reproduce the Figure 2 failure.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/random.hh"
#include "common/table_printer.hh"
#include "engine/act_stream_engine.hh"
#include "registry/scheme_registry.hh"

using namespace mithril;

namespace
{

struct Pattern
{
    const char *name;
    RowId (*row)(std::uint64_t, Rng &);
};

const Pattern kPatterns[] = {
    {"double-sided",
     [](std::uint64_t i, Rng &) {
         return static_cast<RowId>(4000 + 2 * (i % 2));
     }},
    {"multi-sided (32 victims)",
     [](std::uint64_t i, Rng &) {
         return static_cast<RowId>(4000 + 2 * (i % 33));
     }},
    {"rotating 500 rows",
     [](std::uint64_t i, Rng &) {
         return static_cast<RowId>(4000 + 2 * (i % 500));
     }},
    {"random hot 256",
     [](std::uint64_t, Rng &rng) {
         return static_cast<RowId>(4000 + rng.nextBounded(256));
     }},
    {"zipf skew",
     [](std::uint64_t, Rng &rng) {
         return static_cast<RowId>(4000 + rng.nextZipf(2048, 1.2));
     }},
};

} // namespace

int
main(int argc, char **argv)
{
    ParamSet params = ParamSet::fromArgs(argc, argv);
    const std::string scheme_name =
        params.getString("scheme", "mithril");
    if (!registry::schemeRegistry().has(scheme_name))
        fatal("unknown scheme '%s' (registered schemes: %s)",
              scheme_name.c_str(),
              registry::joinSorted(
                  registry::schemeRegistry().names())
                  .c_str());
    const auto flip_th =
        static_cast<std::uint32_t>(params.getUint("flip_th", 6250));
    const auto windows = params.getUint("windows", 2);

    registry::SchemeKnobs knobs;
    knobs.flipTh = flip_th;
    knobs.rfmTh =
        static_cast<std::uint32_t>(params.getUint("rfm_th", 0));
    knobs.adTh =
        static_cast<std::uint32_t>(params.getUint("ad_th", 200));

    const dram::Timing timing = dram::ddr5_4800();
    const dram::Geometry geom = dram::paperGeometry();
    const std::uint64_t acts =
        dram::maxActsPerWindow(timing) * windows;

    std::printf("Attack battery vs %s at FlipTH %u (%llu ACTs ~= %llu "
                "tREFW windows, max rate)\n\n",
                registry::schemeDisplay(scheme_name).c_str(), flip_th,
                static_cast<unsigned long long>(acts),
                static_cast<unsigned long long>(windows));

    TablePrinter table({"pattern", "max disturbance", "bit flips",
                        "prev. refreshes", "RFMs", "verdict"});
    bool all_safe = true;
    for (const Pattern &pattern : kPatterns) {
        std::unique_ptr<trackers::RhProtection> tracker;
        try {
            tracker = registry::makeScheme(scheme_name,
                                           knobs.toParams(),
                                           {timing, geom});
        } catch (const registry::SpecError &err) {
            fatal("%s", err.what());
        }
        engine::ActStreamEngine eng(
            engine::EngineConfig::singleBank(timing, flip_th),
            tracker.get());
        Rng rng(99);
        engine::CallbackSource source(acts, [&](std::uint64_t i) {
            return pattern.row(i, rng);
        });
        eng.run(source);

        const auto &oracle = eng.oracle();
        const bool safe = oracle.bitFlips() == 0;
        all_safe = all_safe && safe;
        table.beginRow()
            .cell(pattern.name)
            .num(oracle.maxDisturbanceEver(), 0)
            .intCell(static_cast<long long>(oracle.bitFlips()))
            .intCell(static_cast<long long>(
                eng.preventiveRefreshes()))
            .intCell(static_cast<long long>(eng.rfms()))
            .cell(safe ? "SAFE" : "FLIPPED");
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("%s\n", all_safe
                            ? "verdict: no victim ever reached FlipTH."
                            : "verdict: protection was defeated.");
    return all_safe ? 0 : 1;
}
