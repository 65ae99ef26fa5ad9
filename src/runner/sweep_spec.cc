#include "runner/sweep_spec.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"

namespace mithril::runner
{

namespace
{

std::vector<std::uint32_t>
narrowUintList(const ParamSet &params, const std::string &key)
{
    std::vector<std::uint32_t> out;
    for (std::uint64_t v : params.getUintList(key)) {
        if (v > 0xffffffffull)
            fatal("parameter %s list entry %llu is out of range",
                  key.c_str(), static_cast<unsigned long long>(v));
        out.push_back(static_cast<std::uint32_t>(v));
    }
    return out;
}

template <typename T>
const std::vector<T> &
orDefault(const std::vector<T> &values, const std::vector<T> &fallback)
{
    return values.empty() ? fallback : values;
}

/** Resolve an axis name through a registry, fatal with the full
 *  candidate list on unknown names; returns the canonical name. */
template <typename Reg>
std::string
resolveName(const Reg &registry, const std::string &name)
{
    try {
        return registry.at(name).name;
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    return {};
}

/** The (desc, owner) of this key among the selected registry
 *  entries, or nullptr when none declares it. */
template <typename Reg>
const registry::ParamDesc *
declaredBy(const Reg &registry, const std::vector<std::string> &names,
           const std::string &key, std::string *owner)
{
    for (const std::string &name : names) {
        const auto *entry = registry.find(name);
        if (!entry)
            continue;
        for (const auto &desc : entry->params) {
            if (desc.key == key) {
                if (owner)
                    *owner = std::string(Reg::kCategory) + " '" +
                             name + "'";
                return &desc;
            }
        }
    }
    return nullptr;
}

/** True when a selected registry entry declares this key. */
template <typename Reg>
bool
entryDeclares(const Reg &registry,
              const std::vector<std::string> &names,
              const std::string &key)
{
    return declaredBy(registry, names, key, nullptr) != nullptr;
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    return deriveSeed(seed, index);
}

std::vector<SweepCase>
SweepSpec::cartesianCases(const std::vector<std::string> &workloads,
                          const std::vector<std::string> &attacks)
{
    std::vector<SweepCase> cases;
    cases.reserve(workloads.size() *
                  std::max<std::size_t>(1, attacks.size()));
    for (const std::string &w : workloads) {
        if (attacks.empty()) {
            cases.push_back({w, "none"});
            continue;
        }
        for (const std::string &a : attacks)
            cases.push_back({w, a});
    }
    return cases;
}

SweepSpec
SweepSpec::fromParams(const ParamSet &params,
                      const std::vector<std::string> &extra_keys)
{
    SweepSpec spec;
    for (const std::string &name : params.getStringList("schemes"))
        spec.schemes.push_back(
            resolveName(registry::schemeRegistry(), name));
    spec.flipThs = narrowUintList(params, "flip");
    spec.rfmThs = narrowUintList(params, "rfm");
    for (const std::string &name : params.getStringList("sources")) {
        spec.sources.push_back(
            name == "none"
                ? name
                : resolveName(registry::sourceRegistry(), name));
    }
    spec.shardsList = narrowUintList(params, "shards");

    std::vector<std::string> workloads;
    for (const std::string &name : params.getStringList("workloads"))
        workloads.push_back(
            resolveName(registry::workloadRegistry(), name));
    std::vector<std::string> attacks;
    for (const std::string &name : params.getStringList("attacks"))
        attacks.push_back(
            resolveName(registry::attackRegistry(), name));
    if (!workloads.empty() || !attacks.empty()) {
        if (workloads.empty())
            workloads.push_back("mix-high");
        spec.cases = cartesianCases(workloads, attacks);
    }

    // Key validation happens after the axes resolve so entry-declared
    // tunables (e.g. victims= with a multi-sided attack) can ride
    // along; every other unknown key is fatal.
    static const std::vector<std::string> kSweepKeys = {
        "schemes", "flip",    "rfm",      "workloads",   "attacks",
        "sources", "shards",  "baseline", "seed-policy", "failpoints",
    };
    std::vector<std::string> case_workloads;
    std::vector<std::string> case_attacks;
    for (const SweepCase &c : spec.cases) {
        case_workloads.push_back(c.workload);
        case_attacks.push_back(c.attack);
    }
    if (case_workloads.empty())
        case_workloads.push_back("mix-high");
    const auto &grid_schemes = spec.schemes.empty()
                                   ? std::vector<std::string>{"mithril"}
                                   : spec.schemes;
    for (const std::string &key : params.keys()) {
        if (std::find(kSweepKeys.begin(), kSweepKeys.end(), key) !=
                kSweepKeys.end() ||
            sim::ExperimentSpec::isKnob(
                key, sim::ExperimentSpec::KnobSet::SweepScalars) ||
            std::find(extra_keys.begin(), extra_keys.end(), key) !=
                extra_keys.end())
            continue;
        std::string owner;
        const registry::ParamDesc *desc =
            declaredBy(registry::schemeRegistry(), grid_schemes, key,
                       &owner);
        if (!desc)
            desc = declaredBy(registry::workloadRegistry(),
                              case_workloads, key, &owner);
        if (!desc)
            desc = declaredBy(registry::attackRegistry(),
                              case_attacks, key, &owner);
        if (!desc)
            desc = declaredBy(registry::sourceRegistry(),
                              spec.sources, key, &owner);
        if (!desc)
            fatal("unknown sweep parameter: %s", key.c_str());
        // Check the value now: a typo'd tunable must die at the CLI,
        // not as per-job FAILED cells after the sweep has run.
        try {
            registry::checkParam(owner, *desc, params);
        } catch (const registry::SpecError &err) {
            fatal("%s", err.what());
        }
        spec.tunables.set(key, params.getString(key));
    }

    // The scalars go through the spec's knob table, ranges included,
    // so an out-of-range value dies here like a malformed axis; so
    // does every value of the knob-backed axes.
    spec.base.readKnobs(params,
                        sim::ExperimentSpec::KnobSet::SweepScalars);
    const auto check_axis = [](const auto &values, auto member) {
        for (const auto value : values) {
            sim::ExperimentSpec probe;
            probe.*member = value;
            probe.checkRanges();
        }
    };
    try {
        spec.base.checkRanges();
        check_axis(spec.flipThs, &sim::ExperimentSpec::flipTh);
        check_axis(spec.rfmThs, &sim::ExperimentSpec::rfmTh);
        check_axis(spec.shardsList, &sim::ExperimentSpec::shards);
    } catch (const registry::SpecError &err) {
        fatal("%s", err.what());
    }
    spec.includeBaseline =
        params.getBool("baseline", spec.includeBaseline);
    if (!spec.base.record.empty() && spec.jobCount() > 1) {
        // N jobs racing one trace file would interleave garbage;
        // capture-once-replay-many is two sweeps (record, then a
        // sources=act-trace grid).
        fatal("record=%s captures one ACT stream, but this sweep "
              "expands to %zu jobs; narrow the grid to a single job",
              spec.base.record.c_str(), spec.jobCount());
    }
    if (!spec.base.traceEvents.empty() && spec.jobCount() > 1) {
        // Same single-file rule as record=.
        fatal("trace-events=%s writes one trace file, but this sweep "
              "expands to %zu jobs; narrow the grid to a single job",
              spec.base.traceEvents.c_str(), spec.jobCount());
    }
    spec.failpoints =
        params.getString("failpoints", spec.failpoints);
    if (!spec.base.tracePipeline.empty() &&
        !spec.tunables.has("trace")) {
        // The pipeline materializes to the path the act-trace jobs
        // replay; without trace= there is nowhere to put it.
        fatal("trace-pipeline= needs trace=<path> (and "
              "sources=act-trace) so the composed corpus has a "
              "replay path");
    }

    const std::string policy =
        params.getString("seed-policy", "shared");
    if (policy == "shared")
        spec.seedPolicy = SeedPolicy::Shared;
    else if (policy == "per-job")
        spec.seedPolicy = SeedPolicy::PerJob;
    else
        fatal("unknown seed-policy: %s (want shared|per-job)",
              policy.c_str());
    return spec;
}

std::size_t
SweepSpec::jobCount() const
{
    const std::size_t n_schemes = std::max<std::size_t>(1, schemes.size());
    const std::size_t n_flips = std::max<std::size_t>(1, flipThs.size());
    const std::size_t n_rfms = std::max<std::size_t>(1, rfmThs.size());
    const std::size_t n_shards =
        std::max<std::size_t>(1, shardsList.size());
    const std::size_t n_cases = std::max<std::size_t>(1, cases.size());
    // The shards axis only applies to engine-only (non-"none")
    // sources: a System job has no shards to vary, so it expands
    // exactly once regardless of the shards list.
    std::size_t n_source_cells = 0;
    for (const std::string &source :
         sources.empty() ? std::vector<std::string>{"none"}
                         : sources)
        n_source_cells += source == "none" ? 1 : n_shards;
    return n_schemes * n_flips * n_rfms * n_source_cells * n_cases +
           (includeBaseline ? n_cases : 0);
}

std::vector<Job>
SweepSpec::expand() const
{
    static const std::vector<std::string> kDefaultSchemes = {
        "mithril"};
    static const std::vector<std::uint32_t> kDefaultFlips = {6250};
    static const std::vector<std::uint32_t> kDefaultRfms = {0};
    static const std::vector<std::string> kDefaultSources = {"none"};
    static const std::vector<std::uint32_t> kDefaultShards = {0};
    static const std::vector<SweepCase> kDefaultCases = {
        {"mix-high", "none"}};

    const auto &grid_schemes = orDefault(schemes, kDefaultSchemes);
    const auto &grid_flips = orDefault(flipThs, kDefaultFlips);
    const auto &grid_rfms = orDefault(rfmThs, kDefaultRfms);
    const auto &grid_sources = orDefault(sources, kDefaultSources);
    const auto &grid_shards = orDefault(shardsList, kDefaultShards);
    const auto &grid_cases = orDefault(cases, kDefaultCases);

    std::vector<Job> jobs;
    jobs.reserve(jobCount());

    // Each job keeps only the tunables its own entries declare, so a
    // para-only knob does not fail validation on the mithril cells of
    // the same sweep.
    auto apply_tunables = [this](sim::ExperimentSpec &spec) {
        for (const std::string &key : tunables.keys()) {
            if (entryDeclares(registry::schemeRegistry(),
                              {spec.scheme}, key) ||
                entryDeclares(registry::workloadRegistry(),
                              {spec.workload}, key) ||
                entryDeclares(registry::attackRegistry(),
                              {spec.attack}, key) ||
                entryDeclares(registry::sourceRegistry(),
                              {spec.source}, key))
                spec.extras.set(key, tunables.getString(key));
        }
    };

    auto case_spec = [this](const SweepCase &c) {
        sim::ExperimentSpec spec = base;
        spec.workload = c.workload;
        spec.attack = c.attack;
        spec.warmupFromWorkload = (c.attack == "none");
        // Composed once per sweep by the runner, never per job.
        spec.tracePipeline.clear();
        return spec;
    };
    auto case_label = [](const SweepCase &c) {
        std::string label = c.workload;
        if (c.attack != "none")
            label += "+" + c.attack;
        return label;
    };
    auto finish = [this, &jobs](Job job) {
        job.index = jobs.size();
        if (seedPolicy == SeedPolicy::PerJob) {
            job.spec.seed = mixSeed(base.seed, job.index);
            job.spec.schemeSeed =
                mixSeed(base.seed, job.index ^ 0x5eedull);
        }
        jobs.push_back(std::move(job));
    };

    if (includeBaseline) {
        for (const SweepCase &c : grid_cases) {
            Job job;
            job.spec = case_spec(c);
            job.spec.scheme = "none";
            // The baseline has always run at the default ad= and
            // blast-radius=; keeping them keeps its describe(), and
            // so every journal fingerprint, stable.
            const sim::ExperimentSpec defaults;
            job.spec.adTh = defaults.adTh;
            job.spec.blastRadius = defaults.blastRadius;
            apply_tunables(job.spec);
            job.isBaseline = true;
            job.label = "none/" + case_label(c);
            finish(std::move(job));
        }
    }

    for (const std::string &scheme : grid_schemes) {
        for (std::uint32_t flip : grid_flips) {
            for (std::uint32_t rfm : grid_rfms) {
                for (const std::string &source : grid_sources) {
                    // System jobs have no shards to vary: the shards
                    // axis collapses to one cell for source=none.
                    static const std::vector<std::uint32_t>
                        kSystemShards = {0};
                    const auto &source_shards =
                        source == "none" ? kSystemShards
                                         : grid_shards;
                    for (std::uint32_t shards : source_shards) {
                        for (const SweepCase &c : grid_cases) {
                            Job job;
                            job.spec = case_spec(c);
                            job.spec.scheme = scheme;
                            job.spec.flipTh = flip;
                            job.spec.rfmTh = rfm;
                            job.spec.source = source;
                            job.spec.shards = shards;
                            apply_tunables(job.spec);
                            job.label =
                                registry::schemeDisplay(scheme) +
                                "/" + std::to_string(flip) +
                                (rfm != 0
                                     ? "/r" + std::to_string(rfm)
                                     : "") +
                                (source != "none" ? "/" + source
                                                  : "") +
                                (shards != 0
                                     ? "/s" + std::to_string(shards)
                                     : "") +
                                "/" + case_label(c);
                            finish(std::move(job));
                        }
                    }
                }
            }
        }
    }
    MITHRIL_ASSERT(jobs.size() == jobCount());
    return jobs;
}

} // namespace mithril::runner
