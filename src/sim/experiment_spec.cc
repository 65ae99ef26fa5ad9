#include "sim/experiment_spec.hh"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "common/logging.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"

namespace mithril::sim
{

namespace
{

using registry::ParamDesc;
using registry::SpecError;

/** Numeric range that admits every uint64 (seeds are never
 *  range-limited). */
constexpr double kAnyU64 = 18446744073709551615.0;

enum KnobFlags : unsigned
{
    /** toParams() omits the knob while it equals a default-built
     *  spec's value, so the describe() of a run that leaves it alone
     *  predates the knob. */
    kQuiet = 1,
    /** A sweep takes the knob as one scalar for all of its jobs. */
    kSweep = 2,
};

/** One spec-owned knob: the ParamDesc readers check against (its
 *  default rendered from a default-built spec), the member it binds
 *  and its KnobFlags. */
struct Knob
{
    using Member =
        std::variant<std::string ExperimentSpec::*,
                     std::uint32_t ExperimentSpec::*,
                     std::uint64_t ExperimentSpec::*,
                     bool ExperimentSpec::*>;

    ParamDesc desc;
    Member member;
    unsigned flags;
};

const ExperimentSpec &
defaults()
{
    static const ExperimentSpec spec;
    return spec;
}

template <typename T>
std::string
render(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return value;
    else if constexpr (std::is_same_v<T, bool>)
        return value ? "1" : "0";
    else
        return std::to_string(value);
}

/** A table row; strings and booleans pass a [0, 0] range. */
template <typename T>
Knob
knob(const char *key, T ExperimentSpec::*member, double min, double max,
     unsigned flags, const char *help)
{
    ParamDesc::Type type = ParamDesc::Type::Uint;
    if constexpr (std::is_same_v<T, std::string>)
        type = ParamDesc::Type::String;
    else if constexpr (std::is_same_v<T, bool>)
        type = ParamDesc::Type::Bool;
    return {{key, type, render(defaults().*member), min, max, help},
            member,
            flags};
}

/** The knob table: the one place a spec-owned knob is declared. */
const std::vector<Knob> &
knobs()
{
    using S = ExperimentSpec;
    static const std::vector<Knob> table = {
        knob("scheme", &S::scheme, 0, 0, 0,
             "protection scheme registry name"),
        knob("workload", &S::workload, 0, 0, 0,
             "workload registry name"),
        knob("attack", &S::attack, 0, 0, 0, "attack registry name"),
        knob("source", &S::source, 0, 0, 0,
             "engine ActSource registry name (none = full-System run)"),
        knob("flip", &S::flipTh, 1, 1e7, 0, "RH threshold (FlipTH)"),
        knob("rfm", &S::rfmTh, 0, 1e5, 0,
             "RFM threshold (0 = scheme default)"),
        knob("ad", &S::adTh, 0, 1e6, kSweep,
             "Mithril adaptive refresh threshold"),
        knob("blast-radius", &S::blastRadius, 1, 4, kSweep,
             "non-adjacent RH radius"),
        knob("scheme-seed", &S::schemeSeed, 0, kAnyU64, 0,
             "scheme-internal RNG seed"),
        knob("cores", &S::cores, 1, 1024, kSweep,
             "total cores (one becomes the attacker when attacking)"),
        knob("instr", &S::instrPerCore, 1, 1e12, kSweep,
             "instruction budget per benign core"),
        knob("seed", &S::seed, 0, kAnyU64, kSweep, "workload RNG seed"),
        knob("warmup", &S::trackerWarmupActs, 0, 1e12, kSweep,
             "tracker warm-up activations before the measured run"),
        knob("warmup-from-workload", &S::warmupFromWorkload, 0, 0, 0,
             "warm the tracker from the benign streams"),
        knob("record", &S::record, 0, 0, kQuiet | kSweep,
             "capture the run's ACT stream to this path "
             "(mithril.acttrace.v1; replay with source=act-trace)"),
        knob("trace-pipeline", &S::tracePipeline, 0, 0, kQuiet | kSweep,
             "compose the replay corpus first: trace-op pipeline "
             "(--list trace-ops) materialized to the trace= path, "
             "then replayed via source=act-trace"),
        knob("telemetry", &S::telemetry, 0, 0, kQuiet | kSweep,
             "collect the telemetry metric sheet + ACT heatmap "
             "(observation only; never affects outcomes)"),
        knob("trace-events", &S::traceEvents, 0, 0, kQuiet | kSweep,
             "write the mitigation-event trace to this path as Chrome "
             "trace-event JSON (Perfetto-loadable)"),
        knob("heatmap-regions", &S::heatmapRegions, 1, 65536,
             kQuiet | kSweep,
             "ACT heatmap region budget per bank (power-of-two "
             "coarsening at budget)"),
        knob("trace-capacity", &S::traceCapacity, 1, 1e8,
             kQuiet | kSweep,
             "mitigation-event ring capacity per bank (newest "
             "retained)"),
        knob("acts", &S::engineActs, 1, 1e12, kSweep,
             "ACT budget of an engine (source=) run"),
        knob("shards", &S::shards, 0, 65536, 0,
             "engine bank shards (0 = one per channel); never affects "
             "results, only parallelism"),
        knob("threads", &S::threads, 0, 1024, 0,
             "worker threads for a standalone engine run (0 = ambient "
             "pool / inline)"),
        knob("channels", &S::channels, 0, 64, kQuiet | kSweep,
             "DRAM channels (0 = geometry preset; must be a power of "
             "two); System runs build one frontend lane per channel"),
        knob("mc-threads", &S::mcThreads, 0, 1024, kQuiet | kSweep,
             "worker threads for the System's channel lanes (0/1 = "
             "inline); never affects results, only wall-clock"),
    };
    return table;
}

const Knob *
findKnob(const std::string &key)
{
    for (const Knob &k : knobs()) {
        if (k.desc.key == key)
            return &k;
    }
    return nullptr;
}

const ParamDesc *
findDesc(const std::vector<ParamDesc> &descs, const std::string &key)
{
    for (const ParamDesc &desc : descs) {
        if (desc.key == key)
            return &desc;
    }
    return nullptr;
}

/** The desc of an entry-declared key across the spec's selected
 *  entries (source_entry null when source=none), with a printable
 *  owner; nullptr when none declares it. */
const ParamDesc *
findEntryParam(const registry::SchemeRegistry::Entry &scheme_entry,
               const registry::WorkloadRegistry::Entry &workload_entry,
               const registry::AttackRegistry::Entry &attack_entry,
               const registry::SourceRegistry::Entry *source_entry,
               const std::string &key, std::string *owner)
{
    if (const ParamDesc *d = findDesc(scheme_entry.params, key)) {
        *owner = "scheme '" + scheme_entry.name + "'";
        return d;
    }
    if (const ParamDesc *d = findDesc(workload_entry.params, key)) {
        *owner = "workload '" + workload_entry.name + "'";
        return d;
    }
    if (const ParamDesc *d = findDesc(attack_entry.params, key)) {
        *owner = "attack '" + attack_entry.name + "'";
        return d;
    }
    if (source_entry) {
        if (const ParamDesc *d =
                findDesc(source_entry->params, key)) {
            *owner = "source '" + source_entry->name + "'";
            return d;
        }
    }
    return nullptr;
}

} // namespace

bool
ExperimentSpec::isKnob(const std::string &key, KnobSet set)
{
    const Knob *k = findKnob(key);
    return k && (set == KnobSet::All || (k->flags & kSweep));
}

void
ExperimentSpec::readKnobs(const ParamSet &params, KnobSet set)
{
    for (const Knob &k : knobs()) {
        const std::string &key = k.desc.key;
        if (!params.has(key) ||
            (set == KnobSet::SweepScalars && !(k.flags & kSweep)))
            continue;
        std::visit(
            [&](auto member) {
                auto &value = this->*member;
                using T = std::decay_t<decltype(value)>;
                if constexpr (std::is_same_v<T, std::string>)
                    value = params.getString(key);
                else if constexpr (std::is_same_v<T, bool>)
                    value = params.getBool(key);
                else if constexpr (std::is_same_v<T, std::uint32_t>)
                    value = params.getUint32(key);
                else
                    value = params.getUint(key);
            },
            k.member);
    }
}

void
ExperimentSpec::checkRanges() const
{
    for (const Knob &k : knobs()) {
        std::visit(
            [&](auto member) {
                using T = std::decay_t<decltype(this->*member)>;
                if constexpr (std::is_same_v<T, std::uint32_t> ||
                              std::is_same_v<T, std::uint64_t>) {
                    const auto value = static_cast<double>(this->*member);
                    if (value < k.desc.min || value > k.desc.max) {
                        throw SpecError(
                            k.desc.key + "=" + render(this->*member) +
                            " is out of range [" +
                            render(static_cast<std::uint64_t>(
                                k.desc.min)) +
                            ", " +
                            render(static_cast<std::uint64_t>(
                                k.desc.max)) +
                            "]");
                    }
                }
            },
            k.member);
    }
    if (channels != 0 && (channels & (channels - 1)) != 0) {
        throw SpecError("channels=" + std::to_string(channels) +
                        " must be a power of two (the address map "
                        "interleaves by channel bits)");
    }
}

ExperimentSpec
ExperimentSpec::parse(const ParamSet &params,
                      const std::vector<std::string> &ignore_keys)
{
    ExperimentSpec spec;

    // Resolve the selected entries first so every later error can cite
    // them.
    const auto &scheme_entry = registry::schemeRegistry().at(
        params.getString("scheme", spec.scheme));
    const auto &workload_entry = registry::workloadRegistry().at(
        params.getString("workload", spec.workload));
    const auto &attack_entry = registry::attackRegistry().at(
        params.getString("attack", spec.attack));
    const std::string source = params.getString("source", spec.source);
    const registry::SourceRegistry::Entry *source_entry =
        source != "none" ? &registry::sourceRegistry().at(source)
                         : nullptr;

    // Reject unknown keys before reading anything: a typo'd knob must
    // not silently run the default configuration.
    for (const std::string &key : params.keys()) {
        if (isKnob(key))
            continue;
        if (std::find(ignore_keys.begin(), ignore_keys.end(), key) !=
            ignore_keys.end())
            continue;
        std::string owner;
        if (!findEntryParam(scheme_entry, workload_entry,
                            attack_entry, source_entry, key,
                            &owner)) {
            std::vector<std::string> known;
            for (const Knob &k : knobs())
                known.push_back(k.desc.key);
            for (const auto *entry_params :
                 {&scheme_entry.params, &workload_entry.params,
                  &attack_entry.params}) {
                for (const ParamDesc &d : *entry_params)
                    known.push_back(d.key);
            }
            if (source_entry) {
                for (const ParamDesc &d : source_entry->params)
                    known.push_back(d.key);
            }
            throw SpecError("unknown experiment parameter '" + key +
                            "'; accepted parameters: " +
                            registry::joinSorted(known));
        }
        spec.extras.set(key, params.getString(key));
    }

    // Format errors are fatal() here (ParamSet semantics); range
    // errors throw SpecError via validate().
    spec.readKnobs(params);
    spec.scheme = scheme_entry.name;
    spec.workload = workload_entry.name;
    spec.attack = attack_entry.name;
    if (source_entry)
        spec.source = source_entry->name;
    spec.validate();
    return spec;
}

ExperimentSpec
ExperimentSpec::fromParams(const ParamSet &params,
                           const std::vector<std::string> &ignore_keys)
{
    try {
        return parse(params, ignore_keys);
    } catch (const SpecError &err) {
        fatal("%s", err.what());
    }
    return {};
}

void
ExperimentSpec::validate() const
{
    const auto &scheme_entry = registry::schemeRegistry().at(scheme);
    const auto &workload_entry =
        registry::workloadRegistry().at(workload);
    const auto &attack_entry = registry::attackRegistry().at(attack);
    const registry::SourceRegistry::Entry *source_entry =
        source != "none" ? &registry::sourceRegistry().at(source)
                         : nullptr;

    checkRanges();
    if (attacking() && !engineRun() && cores < 2) {
        throw SpecError("attack '" + attack +
                        "' needs cores >= 2 (one core becomes the "
                        "attacker)");
    }
    if (!tracePipeline.empty()) {
        // The pipeline writes the corpus the replay source reads, so
        // both ends must be declared. (source_entry->name resolves
        // aliases.)
        if (!source_entry || source_entry->name != "act-trace" ||
            !extras.has("trace")) {
            throw SpecError(
                "trace-pipeline= needs source=act-trace and "
                "trace=<path> (the pipeline materializes to the "
                "trace= path, which the run then replays)");
        }
    }

    for (const std::string &key : extras.keys()) {
        std::string owner;
        const ParamDesc *desc =
            findEntryParam(scheme_entry, workload_entry,
                           attack_entry, source_entry, key, &owner);
        if (!desc) {
            throw SpecError(
                "parameter '" + key + "' is not declared by scheme '" +
                scheme + "', workload '" + workload + "', attack '" +
                attack + "', or source '" + source + "'");
        }
        registry::checkParam(owner, *desc, extras);
    }
}

ParamSet
ExperimentSpec::toParams() const
{
    ParamSet params;
    for (const Knob &k : knobs()) {
        std::visit(
            [&](auto member) {
                if ((k.flags & kQuiet) &&
                    this->*member == defaults().*member)
                    return;
                params.set(k.desc.key, render(this->*member));
            },
            k.member);
    }
    for (const std::string &key : extras.keys())
        params.set(key, extras.getString(key));
    return params;
}

std::string
ExperimentSpec::describe() const
{
    const ParamSet params = toParams();
    std::string out;
    for (const std::string &key : params.keys()) {
        if (!out.empty())
            out += " ";
        out += key + "=" + params.getString(key);
    }
    return out;
}

} // namespace mithril::sim
