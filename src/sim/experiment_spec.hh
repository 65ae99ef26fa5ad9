/**
 * @file
 * The unified experiment description: ONE spec object naming the
 * protection scheme, workload, and attack by registry name, plus every
 * shared knob the evaluation varies. It subsumed (and replaced) the historical
 * RunConfig + SchemeSpec pair and is constructed from a ParamSet, so
 * the CLI, sweep grids, and tests share one parser:
 *
 *   auto spec = sim::ExperimentSpec::fromParams(
 *       ParamSet::fromString("scheme=mithril flip=6250 "
 *                            "workload=mix-high attack=none"));
 *   sim::RunMetrics m = sim::runExperiment(spec);
 *
 * Every spec-owned knob is declared once, in the knob table of
 * experiment_spec.cc: key, bound member, legal range, help line,
 * whether toParams() omits it at its default, and whether a sweep
 * takes it as a scalar. The default itself is the member initializer
 * below. parse(), validate(), toParams() and the sweep front end
 * (runner::SweepSpec) all read that table.
 *
 * Validation is eager: unknown scheme/workload/attack names throw
 * registry::SpecError listing every registered name, out-of-range
 * knobs report the legal range, and a key neither owned by the spec
 * nor declared by a selected registry entry is rejected outright.
 * describe() renders the spec as a canonical sorted "k=v" line that
 * round-trips through ParamSet::fromString — the basis of golden-file
 * tests and sweep labels.
 */

#ifndef MITHRIL_SIM_EXPERIMENT_SPEC_HH
#define MITHRIL_SIM_EXPERIMENT_SPEC_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "sim/system.hh"

namespace mithril::sim
{

/** Full experiment description over registry names. */
struct ExperimentSpec
{
    // ------------------------------------------------ registry axes
    std::string scheme = "mithril";
    std::string workload = "mix-high";
    std::string attack = "none";
    /** Engine ActSource registry name; "none" = full-System run. Any
     *  other value runs the max-rate sharded ActStream engine over
     *  this source instead of building cores/MC — the engine-only
     *  sweep path (scheme x source grids at engine speed). */
    std::string source = "none";

    // ------------------------------------------- engine-run knobs
    /** ACT budget of an engine (source=) run. */
    std::uint64_t engineActs = 1000000;
    /** Bank shards of an engine run (0 = one per channel). Never
     *  affects results — sharded output is byte-identical at any
     *  shard count — only the available parallelism. */
    std::uint32_t shards = 0;
    /** Worker threads for a *standalone* engine run (0 = the ambient
     *  pool when running inside a sweep worker, else inline). */
    std::uint32_t threads = 0;

    // ------------------------------------------------- scheme knobs
    std::uint32_t flipTh = 6250;
    std::uint32_t rfmTh = 0;       //!< 0 = the scheme's auto default.
    std::uint32_t adTh = 200;
    std::uint32_t blastRadius = 1;
    std::uint64_t schemeSeed = 7;

    // ---------------------------------------------------- run knobs
    std::uint32_t cores = 16;
    std::uint64_t instrPerCore = 200000;
    std::uint64_t seed = 42;
    std::uint64_t trackerWarmupActs = 0;
    bool warmupFromWorkload = false;

    /** Capture the run's ACT stream to this path as a
     *  mithril.acttrace.v1 file (empty = off). A System run records
     *  every ACT the controller commits; an engine run records the
     *  exact source prefix the ACT budget admits. Replay it with
     *  source=act-trace trace=<path>. */
    std::string record;

    /** Compose the replay corpus before the run: a trace-op pipeline
     *  (see `--list trace-ops` and trace/pipeline.hh) materialized to
     *  the extras' trace= path, which source=act-trace then replays.
     *  Empty = replay the trace file as-is. */
    std::string tracePipeline;

    // ---------------------------------------------- telemetry knobs
    /** Collect the telemetry metric sheet + ACT heatmap for this run
     *  (reported in sweep outputs as the per-job `telemetry` map).
     *  Never affects simulated outcomes — only what is observed. */
    bool telemetry = false;
    /** Write the run's mitigation-event trace to this path as Chrome
     *  trace-event JSON (Perfetto-loadable; empty = off). Implies
     *  event collection; bounded by traceCapacity events per bank. */
    std::string traceEvents;
    /** ACT heatmap region budget per bank (power-of-two coarsening
     *  keeps distinct regions at or below this). */
    std::uint32_t heatmapRegions = 64;
    /** Mitigation-event ring capacity per bank (newest retained). */
    std::uint32_t traceCapacity = 4096;

    // ------------------------------------------- geometry/parallelism
    /** DRAM channels (0 = the geometry preset's count, a power of
     *  two). A System run builds one frontend lane per channel; an
     *  engine run shards over the same widened geometry. */
    std::uint32_t channels = 0;
    /** Worker threads for the System's channel lanes (0 or 1 =
     *  inline). Never affects results — lane interleave is
     *  deterministic at any value — only wall-clock. */
    std::uint32_t mcThreads = 0;

    /** Entry-declared extra tunables (e.g. victims=, mean-gap=),
     *  validated against the selected entries' declarations. */
    ParamSet extras;

    /** Simulator internals (timing/geometry/MC/LLC presets). Not part
     *  of the ParamSet surface; tests and ablations mutate it
     *  directly. */
    SystemConfig sys;

    /** True when an attacker core runs ("attack" != "none"). */
    bool
    attacking() const
    {
        return attack != "none";
    }

    /** True when this spec runs the ActStream engine, not a System. */
    bool
    engineRun() const
    {
        return source != "none";
    }

    /**
     * Parse and validate a spec from parameters. Keys listed in
     * `ignore_keys` are skipped (caller-owned knobs like jobs=).
     * Throws registry::SpecError with the full candidate list / legal
     * range on any invalid input; names are canonicalized (aliases
     * resolved) on success.
     */
    static ExperimentSpec
    parse(const ParamSet &params,
          const std::vector<std::string> &ignore_keys = {});

    /** Which knobs of the table a reader takes: all of them, or the
     *  scalars a sweep applies to every job (runner::SweepSpec sets
     *  the axes, threads=, scheme-seed= and warmup-from-workload=
     *  per job itself). */
    enum class KnobSet
    {
        All,
        SweepScalars,
    };

    /** True when `key` names a table knob in `set`. */
    static bool isKnob(const std::string &key,
                       KnobSet set = KnobSet::All);

    /**
     * Store the `set` knobs that `params` carries, verbatim: registry
     * names are not canonicalized and nothing is range-checked (see
     * checkRanges()). A malformed number or boolean is fatal
     * (ParamSet semantics).
     */
    void readKnobs(const ParamSet &params, KnobSet set = KnobSet::All);

    /** Check every numeric knob against its legal range, and that
     *  channels is a power of two. Throws registry::SpecError. */
    void checkRanges() const;

    /** As parse(), but fatal() on invalid input (CLI front ends). */
    static ExperimentSpec
    fromParams(const ParamSet &params,
               const std::vector<std::string> &ignore_keys = {});

    /**
     * Re-validate a (possibly hand-built) spec: registry names exist,
     * checkRanges() holds, the cross-knob rules hold (an attack needs
     * two cores, trace-pipeline= needs an act-trace replay), and the
     * extras are declared by the selected entries. Throws
     * registry::SpecError.
     */
    void validate() const;

    /**
     * Canonical "k=v k=v ..." rendering, keys sorted, every shared
     * knob explicit. Deterministic, and
     * `parse(ParamSet::fromString(describe()))` reproduces the spec.
     */
    std::string describe() const;

    /** The spec as a ParamSet (the same pairs describe() prints) —
     *  what registry factories receive. */
    ParamSet toParams() const;
};

} // namespace mithril::sim

#endif // MITHRIL_SIM_EXPERIMENT_SPEC_HH
