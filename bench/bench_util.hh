/**
 * @file
 * Shared helpers for the figure/table reproduction binaries.
 */

#ifndef MITHRIL_BENCH_BENCH_UTIL_HH
#define MITHRIL_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/simd.hh"
#include "common/logging.hh"
#include "common/table_printer.hh"
#include "registry/registry.hh"
#include "registry/scheme_registry.hh"
#include "runner/runner.hh"
#include "runner/sinks.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace mithril::bench
{

/** Geometric mean of a set of ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Common run-scale knobs taken from the command line. */
struct BenchScale
{
    std::uint32_t cores = 8;
    std::uint64_t instrPerCore = 80000;
    std::uint64_t seed = 42;
    /** Runner worker threads (`jobs=N`); 0 = hardware concurrency. */
    unsigned jobs = 0;
    /** Emit stderr progress/ETA while sweeping (`progress=0/1`). */
    bool progress = true;
    /** Machine-readable artifact paths (`json=...`, `csv=...`). */
    std::string jsonOut;
    std::string csvOut;
    /** The full parsed argument set, for bench-specific knobs. */
    ParamSet params;

    /**
     * Parse the shared knobs. A key outside the shared set (plus any
     * bench-specific `extra_keys`) is fatal — a typo'd knob must not
     * silently run the default configuration.
     */
    static BenchScale
    fromArgs(int argc, char **argv,
             const std::vector<std::string> &extra_keys = {})
    {
        static const std::vector<std::string> kSharedKeys = {
            "cores", "instr", "seed", "jobs",
            "progress", "json", "csv",
        };
        ParamSet params = ParamSet::fromArgs(argc, argv);
        for (const std::string &key : params.keys()) {
            if (std::find(kSharedKeys.begin(), kSharedKeys.end(),
                          key) == kSharedKeys.end() &&
                std::find(extra_keys.begin(), extra_keys.end(),
                          key) == extra_keys.end())
                fatal("unknown parameter: %s", key.c_str());
        }
        BenchScale scale;
        scale.params = params;
        scale.cores = params.getUint32("cores", scale.cores);
        scale.instrPerCore =
            params.getUint("instr", scale.instrPerCore);
        scale.seed = params.getUint("seed", scale.seed);
        scale.jobs =
            params.getUint32("jobs", runner::defaultThreadCount());
        scale.progress = params.getBool("progress", scale.progress);
        scale.jsonOut = params.getString("json", "");
        scale.csvOut = params.getString("csv", "");
        return scale;
    }

    /** One experiment at this scale (registry names). */
    sim::ExperimentSpec
    makeSpec(const std::string &workload,
             const std::string &attack = "none") const
    {
        sim::ExperimentSpec spec;
        spec.workload = workload;
        spec.attack = attack;
        spec.cores = cores;
        spec.instrPerCore = instrPerCore;
        spec.seed = seed;
        return spec;
    }

    /** Apply the scale's shared knobs onto a sweep grid. */
    void
    applyTo(runner::SweepSpec &spec) const
    {
        spec.base.cores = cores;
        spec.base.instrPerCore = instrPerCore;
        spec.base.seed = seed;
    }

    runner::RunnerOptions
    runnerOptions() const
    {
        runner::RunnerOptions options;
        options.jobs = jobs;
        options.progress = progress;
        return options;
    }
};

/** Dereference a sweep lookup, panicking with context when the spec
 *  grid and a figure's reporting loops drift apart; a failed job is
 *  a configuration error the figure cannot paper over. */
inline const runner::JobResult &
need(const runner::JobResult *r, const char *what)
{
    MITHRIL_ASSERT_MSG(r != nullptr, "missing sweep result: %s", what);
    if (r->failed())
        fatal("sweep job '%s' failed: %s", r->job.label.c_str(),
              r->error.c_str());
    return *r;
}

/** Run one experiment, turning a rejected configuration into the
 *  fatal (user) error a figure binary wants. */
inline sim::RunMetrics
runOrDie(const sim::ExperimentSpec &spec)
{
    try {
        return sim::runExperiment(spec);
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    return {};
}

/** For benches with no machine-readable sink: reject `json=`/`csv=`
 *  instead of silently ignoring them. */
inline void
rejectArtifacts(const BenchScale &scale, const char *bench)
{
    if (!scale.jsonOut.empty() || !scale.csvOut.empty())
        fatal("%s produces no machine-readable artifact; json=/csv= "
              "are only supported by the sweep-based benches",
              bench);
}

/** For fully serial benches: reject explicit `jobs=`/`progress=` so a
 *  user is never left believing a serial run was parallelized. */
inline void
rejectParallelKnobs(const BenchScale &scale, const char *bench)
{
    if (scale.params.has("jobs") || scale.params.has("progress"))
        fatal("%s runs serially; jobs=/progress= have no effect here",
              bench);
}

/** Write the requested JSON/CSV artifacts (empty path = skip). */
inline void
writeArtifacts(const std::string &json_path,
               const std::string &csv_path,
               const runner::SweepResult &result)
{
    if (!json_path.empty()) {
        runner::JsonSink().writeFile(result, json_path);
        std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    if (!csv_path.empty()) {
        runner::CsvSink().writeFile(result, csv_path);
        std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
    }
}

/** Write the `json=`/`csv=` artifacts a bench was asked for. */
inline void
writeArtifacts(const BenchScale &scale,
               const runner::SweepResult &result)
{
    writeArtifacts(scale.jsonOut, scale.csvOut, result);
}

/** The FlipTH sweep of the evaluation section, descending. */
inline const std::vector<std::uint32_t> &
evalFlipThs()
{
    static const std::vector<std::uint32_t> values = {
        50000, 25000, 12500, 6250, 3125, 1500,
    };
    return values;
}

/** Pretty "50k"-style label. */
inline std::string
flipThLabel(std::uint32_t flip_th)
{
    char buf[32];
    if (flip_th % 1000 == 0)
        std::snprintf(buf, sizeof(buf), "%uk", flip_th / 1000);
    else
        std::snprintf(buf, sizeof(buf), "%.3fk", flip_th / 1000.0);
    return buf;
}

/** Print a section header. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

#ifndef MITHRIL_BUILD_TYPE
#define MITHRIL_BUILD_TYPE ""
#endif

/** Escape a string for embedding inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out;
}

/** The host CPU's marketing name (first /proc/cpuinfo "model name"
 *  line), or "unknown" where that file does not exist. */
inline std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon == std::string::npos)
                continue;
            const auto begin =
                line.find_first_not_of(" \t", colon + 1);
            if (begin != std::string::npos)
                return line.substr(begin);
        }
    }
    return "unknown";
}

/**
 * Physical core count: distinct (physical id, core id) pairs in
 * /proc/cpuinfo. Distinguishes real parallel capacity from SMT —
 * scaling curves flatten past the physical count even on a healthy
 * build. Falls back to hardware_concurrency() when the file is
 * missing or unparseable.
 */
inline unsigned
physicalCoreCount()
{
    std::ifstream in("/proc/cpuinfo");
    std::set<std::pair<long, long>> cores;
    long phys = -1, core = -1;
    auto field_value = [](const std::string &line) {
        const auto colon = line.find(':');
        return colon == std::string::npos
                   ? -1L
                   : std::strtol(line.c_str() + colon + 1, nullptr,
                                 10);
    };
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            if (core >= 0)
                cores.insert({phys, core});
            phys = core = -1;
        } else if (line.rfind("physical id", 0) == 0) {
            phys = field_value(line);
        } else if (line.rfind("core id", 0) == 0) {
            core = field_value(line);
        }
    }
    if (core >= 0)
        cores.insert({phys, core});
    return cores.empty()
               ? std::thread::hardware_concurrency()
               : static_cast<unsigned>(cores.size());
}

/**
 * Write the shared "meta" member of a bench JSON artifact: the host's
 * CPU model, physical vs logical core counts, the active SIMD
 * dispatch level, the CMake build type, and the bench's thread/shard
 * configuration — the context a perf trajectory needs to tell a
 * regression from a machine change. A thread count beyond the host's
 * concurrency is recorded in "warnings" (and echoed to stderr): those
 * scaling points time oversubscription, not the engine.
 */
inline void
writeMetaJson(std::FILE *f, const std::vector<unsigned> &threads,
              std::uint32_t shards)
{
    const unsigned logical = std::thread::hardware_concurrency();
    const unsigned physical = physicalCoreCount();
    unsigned max_threads = 0;
    for (unsigned t : threads)
        max_threads = std::max(max_threads, t);
    std::fprintf(f,
                 "  \"meta\": {\"hardware_concurrency\": %u, "
                 "\"physical_cores\": %u, \"logical_cores\": %u, "
                 "\"cpu_model\": \"%s\", \"simd\": \"%s\", "
                 "\"build_type\": \"%s\", \"threads\": [",
                 logical, physical, logical,
                 jsonEscape(cpuModelName()).c_str(),
                 simd::activeLevelName(), MITHRIL_BUILD_TYPE);
    for (std::size_t i = 0; i < threads.size(); ++i)
        std::fprintf(f, "%s%u", i ? ", " : "", threads[i]);
    std::fprintf(f, "], \"shards\": %u, \"warnings\": [", shards);
    if (logical > 0 && max_threads > logical) {
        std::fprintf(f,
                     "\"threads=%u exceeds hardware concurrency %u; "
                     "those scaling points are oversubscribed\"",
                     max_threads, logical);
        std::fprintf(stderr,
                     "warning: threads=%u exceeds hardware "
                     "concurrency %u; those scaling points are "
                     "oversubscribed\n",
                     max_threads, logical);
    }
    std::fprintf(f, "]},\n");
}

} // namespace mithril::bench

#endif // MITHRIL_BENCH_BENCH_UTIL_HH
