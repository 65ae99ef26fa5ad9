/**
 * @file
 * Out-of-tree extension demo: define and register a brand-new attack
 * pattern WITHOUT touching src/sim, src/trackers, or src/runner —
 * exactly what a user repo would do. The generator class and its
 * Registrar block live in this file only; after registration the
 * attack sweeps, labels, validates, and lists like any built-in:
 *
 *   custom_attack                  # run the demo sweep below
 *   sweep_cli attacks=checkerboard # ...and it works there too, if
 *                                  # registered in that binary
 *
 * The pattern ("checkerboard") hammers alternating even rows of a
 * sliding window, a TRR-evasion-style spread pattern; `window=`
 * controls how many rows the checkerboard spans.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "registry/attack_registry.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/sweep_spec.hh"
#include "workload/attacks.hh"

using namespace mithril;

namespace
{

/**
 * Alternating-parity hammer over a sliding row window. It makes no
 * targetBank() declaration, so the sharded engine's attack source
 * filters a full copy of its stream per shard; declaring target_'s
 * bank (a promise that every record lands there and that the stream
 * never ends) would let each shard build only its own generators.
 */
class CheckerboardAttack : public workload::TraceGenerator
{
  public:
    CheckerboardAttack(const workload::AttackTarget &target,
                       std::uint32_t window)
        : target_(target), window_(window)
    {
    }

    std::optional<workload::TraceRecord>
    next() override
    {
        // Sweep even rows of the window, then odd, so every victim
        // row sees aggressors on both sides once per two sweeps.
        const std::uint64_t phase = produced_ / window_;
        const RowId row = target_.baseRow +
                          2 * static_cast<RowId>(produced_ % window_) +
                          (phase % 2);
        ++produced_;
        workload::TraceRecord rec;
        rec.gap = 1;
        rec.uncached = true;
        rec.write = false;
        rec.addr = target_.map->compose(target_.channel, target_.rank,
                                        target_.bank, row, 0);
        return rec;
    }

    std::string
    name() const override
    {
        return "checkerboard";
    }

  private:
    workload::AttackTarget target_;
    std::uint32_t window_;
    std::uint64_t produced_ = 0;
};

// One Registrar object at file scope is the whole integration: the
// attack becomes sweepable, validated, and listable process-wide.
const registry::Registrar<registry::AttackTraits> kRegisterCheckerboard{{
    /*name=*/"checkerboard",
    /*display=*/"checkerboard",
    /*description=*/
    "alternating-parity hammer over a sliding row window",
    /*aliases=*/{},
    /*uses=*/"",
    /*params=*/
    {{"window", registry::ParamDesc::Type::Uint, "16", 2, 4096,
      "rows the checkerboard spans"}},
    /*make=*/
    [](const ParamSet &params, const registry::AttackContext &ctx)
        -> std::unique_ptr<workload::TraceGenerator> {
        workload::AttackTarget target;
        target.map = &ctx.map;
        target.bank = 5;
        target.baseRow = 0x3000;
        return std::make_unique<CheckerboardAttack>(
            target, params.getUint32("window", 16));
    },
}};

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchScale scale =
        bench::BenchScale::fromArgs(argc, argv, {"window"});

    // The new attack drops straight into a declarative sweep — note
    // the entry-declared `window=` knob riding along.
    ParamSet params = scale.params;
    runner::SweepSpec spec = runner::SweepSpec::fromParams(
        ParamSet::fromString("schemes=mithril,graphene "
                             "attacks=checkerboard baseline=1"),
        {});
    spec.tunables.set("window",
                      params.getString("window", "16"));
    spec.cores = scale.cores;
    spec.instrPerCore = scale.instrPerCore;
    spec.seed = scale.seed;

    const runner::SweepRunner run(scale.runnerOptions());
    const runner::SweepResult result = run.run(spec);
    runner::TableSink().write(result, std::cout);
    bench::writeArtifacts(scale, result);

    const runner::JobResult &base =
        bench::need(result.baseline("mix-high", "checkerboard"),
                    "unprotected checkerboard");
    const runner::JobResult &mithril =
        bench::need(result.find("mithril", 6250, "mix-high",
                                "checkerboard"),
                    "mithril checkerboard");
    std::printf("\ncheckerboard attack: unprotected max disturbance "
                "%.0f, mithril max disturbance %.0f (flips %llu)\n",
                base.metrics.maxDisturbance,
                mithril.metrics.maxDisturbance,
                static_cast<unsigned long long>(
                    mithril.metrics.bitFlips));
    return mithril.metrics.bitFlips == 0 ? 0 : 1;
}
