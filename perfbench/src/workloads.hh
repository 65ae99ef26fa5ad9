/**
 * @file
 * The benchmark's workloads and the three ways it drives them:
 *
 *  - untimed/timed repetitions through `sim::runExperiment`, the
 *    entry point every figure and sweep uses (tracing off);
 *  - a traced pass that builds the same frontend directly through
 *    its public API with timing probes at every layer seam, and must
 *    reproduce the untraced results exactly;
 *  - isolated `cpu` and `mc` drivers that replay a System workload's
 *    LLC and memory-controller work outside the System, so those
 *    layers can be timed per call.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.hh"
#include "sim/experiment.hh"

namespace perfbench
{

/** One benchmark workload. */
struct Workload
{
    /** Name; BENCHMARK.json gives each workload's reason. */
    const char *name;
    /** ExperimentSpec parameters (seed= is appended per run). */
    const char *params;
    /** True when set-up composes an act-trace replay corpus. */
    bool composeCorpus = false;
};

/** Every workload, in the order `all` runs them. */
const std::vector<Workload> &workloads();

/**
 * Set-up: parse and validate the spec; for a replay workload also
 * capture the seed trace and compose the corpus into `workdir` (the
 * spec's acts= budget is then the corpus size). Throws on any failure.
 */
mithril::sim::ExperimentSpec prepare(const Workload &workload,
                                     std::uint64_t seed,
                                     const std::string &workdir);

/** FNV-1a digest of every simulated result of one run. */
std::uint64_t digest(const mithril::sim::RunMetrics &m);

/** Benign instructions one System run retires by construction
 *  (benign cores x per-core budget); 0 for engine runs. */
std::uint64_t instructionBudget(const mithril::sim::ExperimentSpec &spec);

/** Per-layer metric values of one pass, by metric name. */
using LayerValues = std::map<std::string, double>;

/** Outcome of one traced pass. */
struct TracedPass
{
    mithril::sim::RunMetrics metrics;
    LayerValues layer;
    /** Failed conservation checks, one line each. */
    std::vector<std::string> violations;
};

/** Build the workload's frontend with probes at every seam and run
 *  it once. Spans go to `log` when it is non-null. */
TracedPass tracedPass(const mithril::sim::ExperimentSpec &spec,
                      SpanLog *log);

/** The isolated cpu and mc drivers of a System workload. */
LayerValues isolatedDrivers(const mithril::sim::ExperimentSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
