#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "mc/address_map.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"
#include "trace/pipeline.hh"

namespace perfbench
{

using namespace mithril;

namespace
{

/** The System capture the replay corpus is composed from. */
constexpr const char *kCaptureParams =
    "scheme=none workload=mix-high attack=multi-sided cores=8 "
    "instr=80000 mc-threads=1";
constexpr unsigned kTenants = 64;
constexpr const char *kBurst = "splice:attack=multi-sided,burst-acts=10000";

/** The System configuration runExperiment derives from a spec. */
sim::SystemConfig
systemConfig(const sim::ExperimentSpec &spec)
{
    sim::SystemConfig sys = spec.sys;
    sys.flipTh = spec.flipTh;
    sys.blastRadius = spec.blastRadius;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;
    if (spec.mcThreads != 0)
        sys.mcThreads = spec.mcThreads;
    return sys;
}

std::uint32_t
benignCores(const sim::ExperimentSpec &spec)
{
    return spec.attacking() ? spec.cores - 1 : spec.cores;
}

Seam
makeSeam(SpanLog *log, const char *name, const char *parent)
{
    Seam seam;
    seam.log = log;
    if (log)
        seam.id = log->seam(name, parent);
    return seam;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
expectEqual(std::vector<std::string> &violations, const char *what,
            std::uint64_t a, std::uint64_t b)
{
    if (a != b)
        violations.push_back(std::string(what) + ": " +
                             std::to_string(a) + " != " +
                             std::to_string(b));
}

void
addTrackerValues(LayerValues &v, const TrackerCounts &trk,
                 std::uint64_t logic_ops)
{
    v["trackers.calls"] = static_cast<double>(trk.seam.calls);
    v["trackers.acts_seen"] = static_cast<double>(trk.actsSeen);
    v["trackers.rfm_calls"] = static_cast<double>(trk.rfmCalls);
    v["trackers.aggressor_rows"] = static_cast<double>(trk.aggressorRows);
    v["trackers.logic_ops"] = static_cast<double>(logic_ops);
    v["trackers.self_s"] = trk.seam.seconds();
}

TracedPass
tracedSystem(const sim::ExperimentSpec &spec, SpanLog *log)
{
    const sim::SystemConfig sys = systemConfig(spec);
    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing, sys.geometry};
    const std::uint32_t benign = benignCores(spec);
    mc::AddressMap map(sys.geometry);

    Seam run_seam = makeSeam(log, "sim.run", "");
    Seam gen_seam = makeSeam(log, "workload.next", "sim.run");
    TrackerCounts trk;
    trk.seam = makeSeam(log, "trackers.call", "sim.run");

    auto make_benign = [&](std::uint32_t core_id) {
        return registry::makeWorkload(spec.workload, params,
                                      {core_id, benign, spec.seed});
    };

    // Wired exactly as runExperiment wires a System spec, with every
    // generator and tracker wrapped in its timing probe.
    const std::int64_t t_construct = nowNs();
    sim::System system(sys, [&]() -> std::unique_ptr<trackers::RhProtection> {
        auto inner = registry::makeScheme(spec.scheme, params, scheme_ctx);
        if (!inner)
            return nullptr;
        return std::make_unique<TimedTracker>(std::move(inner), trk);
    });
    system.snapshotTrackerOps();
    std::uint64_t observed = 0;
    system.setActObserver(
        [&observed](BankId, RowId, Tick) { ++observed; });
    for (std::uint32_t i = 0; i < benign; ++i) {
        cpu::CoreParams core_params;
        core_params.instrBudget = spec.instrPerCore;
        system.addCore(core_params, std::make_unique<TimedGenerator>(
                                        make_benign(i), gen_seam));
    }
    if (spec.attacking()) {
        const registry::AttackContext ctx{map, spec.flipTh, benign,
                                          spec.seed, make_benign};
        cpu::CoreParams core_params;
        core_params.instrBudget = ~0ull;
        core_params.excluded = true;
        system.addCore(core_params,
                       std::make_unique<TimedGenerator>(
                           registry::makeAttack(spec.attack, params, ctx),
                           gen_seam));
    }
    const double construct_s = secondsSince(t_construct);

    const std::int64_t t_run = nowNs();
    system.run();
    run_seam.record(t_run, nowNs());
    system.setActObserver(nullptr);

    TracedPass out;
    sim::RunMetrics &m = out.metrics;
    const mc::ControllerStats stats = system.stats();
    m.aggIpc = system.aggregateIpc();
    m.energyPj = system.totalEnergyPj();
    m.simTicks = system.now();
    m.acts = stats.activates;
    m.reads = stats.reads;
    m.writes = stats.writes;
    m.rfmIssued = stats.rfmIssued;
    m.rfmSkippedMrr = stats.rfmSkippedByMrr;
    m.arrExecuted = stats.arrExecuted;
    m.throttleStalls = stats.throttleStalls;
    m.avgReadLatencyNs = stats.avgReadLatencyNs();
    m.p95ReadLatencyNs = stats.readLatencyNs.percentile(0.95);
    m.preventiveRefreshes = system.preventiveCount() + stats.arrExecuted;
    m.maxDisturbance = system.maxDisturbanceEver();
    m.bitFlips = system.bitFlips();
    if (system.tracker(0))
        m.trackerBytesPerBank = system.tracker(0)->tableBytesPerBank();

    std::uint64_t instr = 0;
    for (const auto &core : system.cores())
        if (!core->excluded())
            instr += core->instructionsRetired();
    const cpu::Cache &llc = system.cache();

    LayerValues &v = out.layer;
    v["sim.construct_s"] = construct_s;
    v["sim.run_s"] = run_seam.seconds();
    v["sim.acts_observed"] = static_cast<double>(observed);
    v["sim.residual_s"] =
        run_seam.seconds() - gen_seam.seconds() - trk.seam.seconds();
    v["workload.next_calls"] = static_cast<double>(gen_seam.calls);
    v["workload.self_s"] = gen_seam.seconds();
    v["cpu.instr_retired"] = static_cast<double>(instr);
    v["cpu.llc_accesses"] =
        static_cast<double>(llc.hits() + llc.misses());
    v["cpu.llc_hit_ratio"] = llc.hitRate();
    v["cpu.llc_writebacks"] = static_cast<double>(llc.writebacks());
    v["mc.reads"] = static_cast<double>(stats.reads);
    v["mc.writes"] = static_cast<double>(stats.writes);
    v["mc.acts"] = static_cast<double>(stats.activates);
    v["mc.row_hit_ratio"] =
        ratio(static_cast<double>(stats.rowHits),
              static_cast<double>(stats.rowHits + stats.rowMisses));
    v["mc.refreshes"] = static_cast<double>(stats.refreshes);
    v["mc.rfm_issued"] = static_cast<double>(stats.rfmIssued);
    v["mc.rfm_skipped_mrr"] = static_cast<double>(stats.rfmSkippedByMrr);
    v["mc.arr_executed"] = static_cast<double>(stats.arrExecuted);
    v["mc.throttle_stalls"] = static_cast<double>(stats.throttleStalls);
    v["mc.read_lat_avg_ns"] = m.avgReadLatencyNs;
    v["mc.read_lat_p95_ns"] = m.p95ReadLatencyNs;
    addTrackerValues(v, trk, system.trackerLogicOps());

    expectEqual(out.violations, "tracker ACTs vs observed ACTs",
                trk.actsSeen, observed);
    expectEqual(out.violations, "observed ACTs vs controller ACTs",
                observed, stats.activates);
    if (instr < instructionBudget(spec))
        out.violations.push_back("benign cores retired " +
                                 std::to_string(instr) +
                                 " instructions, under the budget");
    return out;
}

TracedPass
tracedEngine(const sim::ExperimentSpec &spec, SpanLog *log)
{
    sim::SystemConfig sys = spec.sys;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;
    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing, sys.geometry};
    const registry::SourceContext source_ctx{sys.timing, sys.geometry,
                                             spec.flipTh, spec.seed};

    Seam run_seam = makeSeam(log, "sim.run", "");
    TrackerCounts trk;
    trk.seam = makeSeam(log, "trackers.call", "sim.run");
    SourceCounts src;
    src.seam = makeSeam(log, "engine.source_fill", "sim.run");

    // Configured exactly as runExperiment configures an engine spec
    // (single-threaded: shards run inline), plus phase profiling.
    engine::ShardedEngineConfig cfg;
    cfg.engine.timing = sys.timing;
    cfg.engine.geometry = sys.geometry;
    cfg.engine.flipTh = spec.flipTh;
    cfg.engine.blastRadius = spec.blastRadius;
    cfg.shards = spec.shards;
    cfg.telemetry.phases = true;

    const std::int64_t t_construct = nowNs();
    engine::ShardedActStreamEngine eng(
        cfg, [&]() -> std::unique_ptr<trackers::RhProtection> {
            auto inner =
                registry::makeScheme(spec.scheme, params, scheme_ctx);
            if (!inner)
                return nullptr;
            return std::make_unique<TimedTracker>(std::move(inner), trk);
        });
    const double construct_s = secondsSince(t_construct);

    const std::int64_t t_run = nowNs();
    eng.run(
        [&] {
            return std::make_unique<TimedSource>(
                registry::makeActSource(spec.source, params, source_ctx),
                src);
        },
        spec.engineActs);
    run_seam.record(t_run, nowNs());

    TracedPass out;
    sim::RunMetrics &m = out.metrics;
    m.acts = eng.acts();
    m.rfmIssued = eng.rfms();
    m.preventiveRefreshes = eng.preventiveRefreshes();
    m.arrExecuted = eng.preventiveRefreshes();
    m.throttleStalls = eng.throttleStalls();
    m.maxDisturbance = eng.maxDisturbanceEver();
    m.bitFlips = eng.bitFlips();
    Tick latest = 0;
    for (BankId b = 0; b < eng.numBanks(); ++b)
        latest = std::max(latest, eng.now(b));
    m.simTicks = latest;
    if (trackers::RhProtection *t = eng.tracker(0))
        m.trackerBytesPerBank = t->tableBytesPerBank();

    double source_s = 0.0, dispatch_s = 0.0, shard_max_s = 0.0;
    for (std::uint32_t s = 0; s < eng.shardCount(); ++s) {
        const telemetry::PhaseProfile &p = eng.shardTelemetry(s)->phases();
        source_s += p.sourceSec;
        dispatch_s += p.dispatchSec;
        shard_max_s = std::max(shard_max_s, eng.shardWallSec(s));
    }

    LayerValues &v = out.layer;
    v["sim.construct_s"] = construct_s;
    v["sim.run_s"] = run_seam.seconds();
    v["sim.acts_observed"] = static_cast<double>(eng.acts());
    v["sim.residual_s"] = run_seam.seconds() - source_s - dispatch_s;
    v["engine.source_s"] = source_s;
    v["engine.fill_calls"] = static_cast<double>(src.seam.calls);
    v["engine.records_pulled"] = static_cast<double>(src.records);
    v["engine.source_keep_ratio"] =
        ratio(static_cast<double>(eng.acts()),
              static_cast<double>(src.records));
    v["engine.dispatch_s"] = dispatch_s;
    v["engine.oracle_s"] = dispatch_s - trk.seam.seconds();
    v["engine.join_s"] = eng.joinSec();
    v["engine.shard_wall_max_s"] = shard_max_s;
    addTrackerValues(v, trk, eng.logicOps());

    expectEqual(out.violations, "tracker ACTs vs engine ACTs",
                trk.actsSeen, eng.acts());
    expectEqual(out.violations, "engine ACTs vs records replayed",
                eng.acts(), spec.engineActs);
    return out;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"sys-mix-read",
         "scheme=mithril workload=mix-high attack=none cores=8 "
         "instr=400000 mc-threads=1"},
        {"sys-radix-hammer",
         "scheme=mithril+ workload=mt-radix attack=multi-sided cores=8 "
         "instr=400000 mc-threads=1"},
        {"engine-hammer",
         "scheme=mithril source=attack attack=multi-sided acts=5000000 "
         "threads=1"},
        {"engine-replay",
         "scheme=mithril+ source=act-trace threads=1", true},
    };
    return list;
}

sim::ExperimentSpec
prepare(const Workload &workload, std::uint64_t seed,
        const std::string &workdir)
{
    ParamSet params = ParamSet::fromString(workload.params);
    params.set("seed", std::to_string(seed));
    if (workload.composeCorpus) {
        // Capture one attacked System run, remap it to kTenants bank
        // offsets, merge them and splice an attack burst — the
        // composition micro_replay measures, at a fixed width.
        const std::string capture = workdir + "/capture.acttrace";
        const std::string corpus = workdir + "/corpus.acttrace";
        sim::ExperimentSpec cap =
            sim::ExperimentSpec::parse(ParamSet::fromString(kCaptureParams));
        cap.seed = seed;
        cap.record = capture;
        const sim::RunMetrics captured = sim::runExperiment(cap);
        if (engine::actTraceInfo(capture).records != captured.acts)
            throw std::runtime_error("capture lost ACT records");

        std::string merge = "merge:";
        std::vector<std::string> tenants;
        for (unsigned i = 0; i < kTenants; ++i) {
            tenants.push_back(workdir + "/tenant" + std::to_string(i) +
                              ".acttrace");
            trace::materializePipeline("remap:" + capture +
                                           ",bank-rotate=" +
                                           std::to_string(i),
                                       tenants.back(), seed);
            merge += (i ? "," : "") + tenants.back();
        }
        const engine::ActTraceInfo info = trace::materializePipeline(
            merge + "|" + kBurst, corpus, seed);
        for (const std::string &path : tenants)
            std::remove(path.c_str());
        std::remove(capture.c_str());

        params.set("trace", corpus);
        params.set("acts", std::to_string(info.records));
    }
    return sim::ExperimentSpec::parse(params);
}

std::uint64_t
digest(const sim::RunMetrics &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto mix_double = [&mix](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        mix(bits);
    };
    mix_double(m.aggIpc);
    mix_double(m.energyPj);
    mix(static_cast<std::uint64_t>(m.simTicks));
    for (std::uint64_t x :
         {m.acts, m.reads, m.writes, m.rfmIssued, m.rfmSkippedMrr,
          m.arrExecuted, m.preventiveRefreshes, m.throttleStalls,
          m.bitFlips})
        mix(x);
    mix_double(m.maxDisturbance);
    mix_double(m.avgReadLatencyNs);
    mix_double(m.p95ReadLatencyNs);
    mix_double(m.trackerBytesPerBank);
    return h;
}

std::uint64_t
instructionBudget(const sim::ExperimentSpec &spec)
{
    return spec.engineRun() ? 0 : benignCores(spec) * spec.instrPerCore;
}

TracedPass
tracedPass(const sim::ExperimentSpec &spec, SpanLog *log)
{
    return spec.engineRun() ? tracedEngine(spec, log)
                            : tracedSystem(spec, log);
}

LayerValues
isolatedDrivers(const sim::ExperimentSpec &spec)
{
    const sim::SystemConfig sys = systemConfig(spec);
    const ParamSet params = spec.toParams();
    const std::uint32_t benign = benignCores(spec);

    // Each benign core's records up to its instruction budget,
    // interleaved round-robin across cores.
    std::vector<std::vector<workload::TraceRecord>> per_core(benign);
    for (std::uint32_t i = 0; i < benign; ++i) {
        auto gen = registry::makeWorkload(spec.workload, params,
                                          {i, benign, spec.seed});
        std::uint64_t instr = 0;
        while (instr < spec.instrPerCore) {
            auto rec = gen->next();
            if (!rec)
                break;
            instr += rec->gap;
            per_core[i].push_back(*rec);
        }
    }
    std::vector<workload::TraceRecord> stream;
    for (std::size_t k = 0;; ++k) {
        bool any = false;
        for (const auto &records : per_core) {
            if (k < records.size()) {
                stream.push_back(records[k]);
                any = true;
            }
        }
        if (!any)
            break;
    }

    // cpu: a standalone LLC over the stream, reserving-then-committing
    // like the System (peekVictim + access); misses and dirty victims
    // become the memory request stream.
    // The pass is short, so it runs kLlcPasses times over a fresh
    // cache and the median is kept.
    constexpr int kLlcPasses = 5;
    mc::AddressMap map(sys.geometry);
    std::vector<mc::Request> requests;
    std::vector<double> llc_s;
    for (int pass = 0; pass < kLlcPasses; ++pass) {
        requests.clear();
        requests.reserve(stream.size());
        cpu::Cache llc(sys.cacheParams);
        std::uint64_t probe_hits = 0;
        const std::int64_t t_llc = nowNs();
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const workload::TraceRecord &rec = stream[i];
            probe_hits += llc.peekVictim(rec.addr).hit;
            const auto result = llc.access(rec.addr, rec.write);
            if (result.hit)
                continue;
            mc::Request req;
            req.addr = rec.addr;
            req.isWrite = rec.write;
            req.coreId = static_cast<std::uint32_t>(i % benign);
            requests.push_back(req);
            if (result.writeback) {
                req.addr = result.writebackAddr;
                req.isWrite = true;
                req.tracked = false;
                requests.push_back(req);
            }
        }
        llc_s.push_back(secondsSince(t_llc));
        if (probe_hits != llc.hits())
            throw std::runtime_error("LLC peekVictim disagrees with access");
    }
    std::nth_element(llc_s.begin(), llc_s.begin() + kLlcPasses / 2,
                     llc_s.end());

    // mc: one Device + Controller per channel, trackers from the
    // workload's scheme factory. Requests are admitted in stream order
    // while the target queue has room; each controller is serviced at
    // every tick it asks for, earliest first.
    const registry::SchemeContext scheme_ctx{sys.timing, sys.geometry};
    const std::uint32_t channels = sys.geometry.channels;
    std::vector<std::unique_ptr<dram::Device>> devices;
    std::vector<std::unique_ptr<trackers::RhProtection>> schemes;
    std::vector<std::unique_ptr<mc::Controller>> controllers;
    for (std::uint32_t ch = 0; ch < channels; ++ch) {
        devices.push_back(std::make_unique<dram::Device>(
            sys.timing, sys.geometry, sys.flipTh, sys.blastRadius));
        schemes.push_back(
            registry::makeScheme(spec.scheme, params, scheme_ctx));
        devices.back()->setTracker(schemes.back().get());
        controllers.push_back(std::make_unique<mc::Controller>(
            *devices.back(), map, sys.mcParams, ch));
        controllers.back()->setCompletionCallback(
            [](const mc::Request &, Tick) {});
    }

    std::vector<Tick> next(channels, kTickMax);
    std::vector<std::uint32_t> samples_ns;
    samples_ns.reserve(4 * requests.size());
    Tick now = 0;
    std::size_t admitted = 0;
    for (;;) {
        while (admitted < requests.size()) {
            mc::Request req = requests[admitted];
            map.decode(req);
            mc::Controller &c = *controllers[req.channel];
            if (c.queueDepth() >= sys.mcParams.queueCapacity)
                break;
            if (!c.enqueue(req, now))
                throw std::runtime_error("MC refused a request with room");
            next[req.channel] = std::min(next[req.channel], now);
            ++admitted;
        }
        if (admitted == requests.size() &&
            std::all_of(controllers.begin(), controllers.end(),
                        [](const auto &c) { return c->idle(); }))
            break;
        const auto ch = static_cast<std::size_t>(
            std::min_element(next.begin(), next.end()) - next.begin());
        if (next[ch] == kTickMax)
            throw std::runtime_error("MC driver stalled with work left");
        now = next[ch];
        const std::int64_t t0 = nowNs();
        next[ch] = controllers[ch]->service(now);
        samples_ns.push_back(static_cast<std::uint32_t>(nowNs() - t0));
    }

    std::uint64_t commands = 0;
    for (const auto &c : controllers) {
        const mc::ControllerStats &s = c->stats();
        commands += s.reads + s.writes + s.activates + s.precharges +
                    s.refreshes + s.rfmIssued + s.rfmSkippedByMrr +
                    s.arrExecuted;
    }
    double service_s = 0.0;
    for (std::uint32_t ns : samples_ns)
        service_s += static_cast<double>(ns) * 1e-9;
    auto percentile = [&samples_ns](double q) {
        if (samples_ns.empty())
            return 0.0;
        std::vector<std::uint32_t> v = samples_ns;
        const std::size_t k = static_cast<std::size_t>(
            q * static_cast<double>(v.size() - 1));
        std::nth_element(v.begin(), v.begin() + k, v.end());
        return static_cast<double>(v[k]);
    };

    LayerValues v;
    v["cpu.llc_ns_per_access"] =
        ratio(llc_s[kLlcPasses / 2] * 1e9,
              static_cast<double>(stream.size()));
    v["mc.service_calls"] = static_cast<double>(samples_ns.size());
    v["mc.service_s"] = service_s;
    v["mc.service_ns_p50"] = percentile(0.50);
    v["mc.service_ns_p99"] = percentile(0.99);
    v["mc.cmds_per_service"] =
        ratio(static_cast<double>(commands),
              static_cast<double>(samples_ns.size()));
    return v;
}

} // namespace perfbench
