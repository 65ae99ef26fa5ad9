/**
 * @file
 * The repository benchmark binary. Runs one or more workloads in one
 * process, single simulation thread, and prints one
 * `PERFBENCH {json}` line per workload: its simulated-result digest,
 * the attempted/failed run counts, and its metrics (end-to-end with
 * --trace 0, per-layer with --trace 1). perfbench/run.py builds this
 * binary and renders the lines; see perfbench/README.md.
 *
 *   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
 *             --workdir DIR [--spans PATH]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::vector<const Workload *> workloads;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
    std::string spans;
};

/** One metric value with its unit, in output order. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Units of the per-layer metrics, in output order. */
const std::vector<std::pair<const char *, const char *>> kLayerUnits = {
    {"sim.construct_s", "s"},
    {"sim.run_s", "s"},
    {"sim.untraced_run_s", "s"},
    {"sim.trace_overhead", "ratio"},
    {"sim.acts_observed", "count"},
    {"sim.residual_s", "s"},
    {"workload.next_calls", "count"},
    {"workload.self_s", "s"},
    {"cpu.instr_retired", "count"},
    {"cpu.llc_accesses", "count"},
    {"cpu.llc_hit_ratio", "ratio"},
    {"cpu.llc_writebacks", "count"},
    {"cpu.llc_ns_per_access", "ns"},
    {"mc.reads", "count"},
    {"mc.writes", "count"},
    {"mc.acts", "count"},
    {"mc.row_hit_ratio", "ratio"},
    {"mc.refreshes", "count"},
    {"mc.rfm_issued", "count"},
    {"mc.rfm_skipped_mrr", "count"},
    {"mc.arr_executed", "count"},
    {"mc.throttle_stalls", "count"},
    {"mc.read_lat_avg_ns", "ns"},
    {"mc.read_lat_p95_ns", "ns"},
    {"mc.service_calls", "count"},
    {"mc.service_s", "s"},
    {"mc.service_ns_p50", "ns"},
    {"mc.service_ns_p99", "ns"},
    {"mc.cmds_per_service", "ratio"},
    {"trackers.calls", "count"},
    {"trackers.acts_seen", "count"},
    {"trackers.rfm_calls", "count"},
    {"trackers.aggressor_rows", "count"},
    {"trackers.logic_ops", "count"},
    {"trackers.self_s", "s"},
    {"engine.source_s", "s"},
    {"engine.fill_calls", "count"},
    {"engine.records_pulled", "count"},
    {"engine.source_keep_ratio", "ratio"},
    {"engine.dispatch_s", "s"},
    {"engine.oracle_s", "s"},
    {"engine.join_s", "s"},
    {"engine.shard_wall_max_s", "s"},
    {"dram.bit_flips", "count"},
    {"dram.max_disturbance", "count"},
    {"dram.preventive_refreshes", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME|all "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::string workload;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (key == "--workdir")
                opt.workdir = value;
            else if (key == "--spans")
                opt.spans = value;
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    for (const Workload &w : workloads())
        if (workload == "all" || workload == w.name)
            opt.workloads.push_back(&w);
    if (opt.workloads.empty())
        usage(("unknown workload '" + workload + "'").c_str());
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");
    return opt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/**
 * Run-level bookkeeping of one workload: every repetition's outcome
 * is checked against the first (identical simulated results, no bit
 * flips), and anything that throws or fails counts as failed.
 */
class Checker
{
  public:
    /** Check one run's results; false when it failed. */
    bool
    check(const mithril::sim::RunMetrics &m, const char *what,
          const std::vector<std::string> &violations = {})
    {
        ++attempted_;
        const std::uint64_t d = digest(m);
        if (!haveRef_) {
            ref_ = d;
            refMetrics_ = m;
            haveRef_ = true;
        }
        std::string why;
        if (m.bitFlips != 0)
            why = std::to_string(m.bitFlips) + " bit flips";
        else if (d != ref_)
            why = "simulated results differ from the first run";
        else if (!violations.empty())
            why = violations.front();
        if (why.empty())
            return true;
        fail(std::string(what) + ": " + why);
        return false;
    }

    /** Count an attempt that threw before producing results. */
    void
    threw(const char *what, const std::exception &e)
    {
        ++attempted_;
        fail(std::string(what) + " threw: " + e.what());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t ref() const { return ref_; }
    const mithril::sim::RunMetrics &refMetrics() const
    {
        return refMetrics_;
    }
    const std::vector<std::string> &errors() const { return errors_; }

  private:
    void
    fail(const std::string &why)
    {
        ++failed_;
        if (errors_.size() < 8)
            errors_.push_back(why);
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    }

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool haveRef_ = false;
    std::uint64_t ref_ = 0;
    mithril::sim::RunMetrics refMetrics_;
    std::vector<std::string> errors_;
};

/** Time one untraced repetition through runExperiment. */
bool
timedRep(const mithril::sim::ExperimentSpec &spec, Checker &checker, double *wall_s)
{
    try {
        const std::int64_t t0 = nowNs();
        const mithril::sim::RunMetrics m = mithril::sim::runExperiment(spec);
        *wall_s = secondsSince(t0);
        return checker.check(m, "timed run");
    } catch (const std::exception &e) {
        checker.threw("timed run", e);
        return false;
    }
}

/** One traced pass, checked like any repetition. */
bool
checkedTracedPass(const mithril::sim::ExperimentSpec &spec, SpanLog *log, Checker &checker,
                  TracedPass *out)
{
    try {
        *out = tracedPass(spec, log);
        return checker.check(out->metrics, "traced run",
                             out->violations);
    } catch (const std::exception &e) {
        checker.threw("traced run", e);
        return false;
    }
}

/** Run one workload; prints its PERFBENCH line. False on failure. */
bool
runWorkload(const Workload &w, const Options &opt, SpanLog *log)
{
    Checker checker;
    std::vector<Metric> metrics;

    // Set-up, repeated kSetups times for a steady median: spec parse +
    // validation + input generation (+ capture and compose for a
    // replay corpus) + one untimed warm repetition, whose result
    // becomes the reference digest.
    constexpr int kSetups = 3;
    std::vector<double> setups;
    mithril::sim::ExperimentSpec spec;
    for (int k = 0; k < kSetups; ++k) {
        const std::int64_t t0 = nowNs();
        spec = prepare(w, opt.seed, opt.workdir);
        const mithril::sim::RunMetrics warm =
            mithril::sim::runExperiment(spec);
        setups.push_back(secondsSince(t0));
        checker.check(warm, "set-up warm run");
    }
    const std::uint64_t acts = checker.refMetrics().acts;
    const std::uint64_t instr = instructionBudget(spec);

    const std::int64_t t_start = nowNs();
    auto time_left = [&] { return secondsSince(t_start) < opt.seconds; };

    if (!opt.trace) {
        // Rates are total simulated work over total host seconds of
        // the timed repetitions.
        std::size_t timed = 0;
        double timed_s = 0.0;
        for (std::size_t reps = 0; time_left() || reps < 3; ++reps) {
            double wall = 0.0;
            if (!timedRep(spec, checker, &wall))
                continue;
            ++timed;
            timed_s += wall;
        }
        const double reps_per_s = timed_s > 0.0 ? timed / timed_s : 0.0;
        const double rss = peakRssMb();
        TracedPass traced;
        checkedTracedPass(spec, nullptr, checker, &traced);

        const mithril::sim::RunMetrics &ref = checker.refMetrics();
        metrics.push_back({"acts_per_s", acts * reps_per_s, "1/s"});
        if (!spec.engineRun())
            metrics.push_back({"instr_per_s", instr * reps_per_s, "1/s"});
        metrics.push_back({"setup_s", median(setups), "s"});
        metrics.push_back({"peak_rss_mb", rss, "MB"});
        metrics.push_back(
            {"failed_frac",
             static_cast<double>(checker.failed()) /
                 static_cast<double>(checker.attempted()),
             "ratio"});
        if (!spec.engineRun()) {
            metrics.push_back({"sim_ipc", ref.aggIpc, "instr/cycle"});
            metrics.push_back({"sim_energy_uj", ref.energyPj * 1e-6, "uJ"});
        }
        metrics.push_back(
            {"sim_ms", mithril::tickToMs(ref.simTicks), "ms"});
        metrics.push_back(
            {"timed_reps", static_cast<double>(timed), "count"});
    } else {
        // Untraced repetitions (the trace-overhead base) alternate
        // with traced passes until the run length is used up.
        std::vector<double> untraced;
        std::map<std::string, std::vector<double>> samples;
        std::size_t passes = 0;
        for (; time_left() || passes < 2; ++passes) {
            double wall = 0.0;
            if (timedRep(spec, checker, &wall))
                untraced.push_back(wall);
            if (log)
                log->beginPass();
            TracedPass traced;
            if (!checkedTracedPass(spec, log, checker, &traced))
                continue;
            for (const auto &[name, value] : traced.layer)
                samples[name].push_back(value);
        }
        LayerValues layer;
        for (const auto &[name, values] : samples)
            layer[name] = median(values);
        if (!spec.engineRun()) {
            try {
                for (const auto &[name, value] : isolatedDrivers(spec))
                    layer[name] = value;
            } catch (const std::exception &e) {
                checker.threw("isolated drivers", e);
            }
        }
        const mithril::sim::RunMetrics &ref = checker.refMetrics();
        layer["sim.untraced_run_s"] = median(untraced);
        layer["sim.trace_overhead"] =
            median(untraced) > 0.0
                ? (layer["sim.construct_s"] + layer["sim.run_s"]) /
                      median(untraced)
                : 0.0;
        layer["dram.bit_flips"] = static_cast<double>(ref.bitFlips);
        layer["dram.max_disturbance"] = ref.maxDisturbance;
        layer["dram.preventive_refreshes"] =
            static_cast<double>(ref.preventiveRefreshes);
        for (const auto &[name, unit] : kLayerUnits) {
            const auto it = layer.find(name);
            metrics.push_back(
                {name, it == layer.end() ? 0.0 : it->second, unit});
        }
        metrics.push_back(
            {"traced_passes", static_cast<double>(passes), "count"});
    }

    const mithril::sim::RunMetrics &ref = checker.refMetrics();
    std::printf("PERFBENCH {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"digest\": \"%016" PRIx64 "\", "
                "\"sim\": {\"acts\": %" PRIu64 ", \"reads\": %" PRIu64
                ", \"writes\": %" PRIu64 ", \"rfm_issued\": %" PRIu64
                ", \"rfm_skipped_mrr\": %" PRIu64
                ", \"preventive_refreshes\": %" PRIu64
                ", \"bit_flips\": %" PRIu64 ", \"ipc\": %.17g"
                ", \"energy_uj\": %.17g, \"sim_ms\": %.17g}, "
                "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"errors\": [",
                w.name, opt.seed, opt.trace ? 1 : 0, checker.ref(),
                ref.acts, ref.reads, ref.writes, ref.rfmIssued,
                ref.rfmSkippedMrr, ref.preventiveRefreshes, ref.bitFlips,
                ref.aggIpc, ref.energyPj * 1e-6,
                mithril::tickToMs(ref.simTicks), checker.attempted(),
                checker.failed());
    for (std::size_t i = 0; i < checker.errors().size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    jsonString(checker.errors()[i]).c_str());
    std::printf("], \"meta\": {\"simd\": \"%s\", \"build_type\": \"%s\"}, "
                "\"metrics\": {",
                mithril::simd::activeLevelName(), MITHRIL_BUILD_TYPE);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
    return checker.failed() == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // A simulator assertion inside one repetition becomes an exception
    // that counts as a failed run instead of aborting the benchmark.
    mithril::setLogThrowOnFatal(true);

    SpanLog log(20000);
    bool ok = true;
    for (const Workload *w : opt.workloads) {
        try {
            ok = runWorkload(*w, opt, opt.trace ? &log : nullptr) && ok;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                         w->name, e.what());
            return 2;
        }
    }
    if (!opt.spans.empty() && !log.writeChromeTrace(opt.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spans.c_str());
        return 2;
    }
    return ok ? 0 : 1;
}
