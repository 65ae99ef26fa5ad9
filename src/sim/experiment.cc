#include "experiment.hh"

#include <sys/stat.h>

#include <algorithm>

#include "common/logging.hh"
#include "engine/act_trace.hh"
#include "engine/sharded_engine.hh"
#include "registry/attack_registry.hh"
#include "registry/scheme_registry.hh"
#include "registry/source_registry.hh"
#include "registry/workload_registry.hh"
#include "runner/thread_pool.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/exports.hh"
#include "telemetry/telemetry.hh"
#include "trace/pipeline.hh"

namespace mithril::sim
{

namespace
{

/** True when two paths name the same existing file, through any
 *  aliasing (relative vs absolute spellings, symlinks, hardlinks). */
bool
sameFile(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    struct stat sa, sb;
    if (::stat(a.c_str(), &sa) != 0 || ::stat(b.c_str(), &sb) != 0)
        return false;
    return sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

/** Conservation: the ground-truth oracle applied exactly the ACTs
 *  the frontend committed, so no safety verdict rests on a dropped
 *  activation. Checked once per run, in every build type. */
void
checkOracleConserved(const char *frontend, std::uint64_t oracle_acts,
                     std::uint64_t acts)
{
    MITHRIL_ASSERT_MSG(oracle_acts == acts,
                       "%s: the oracle applied %llu of %llu activations",
                       frontend,
                       static_cast<unsigned long long>(oracle_acts),
                       static_cast<unsigned long long>(acts));
}

/**
 * The engine-only experiment body: scheme x source at maximum ACT
 * rate on the sharded ActStream engine — no cores, no MC queues.
 * Inside a sweep worker the shards reuse the sweep's own pool
 * (ThreadPool::current()); standalone runs honour spec.threads.
 */
RunMetrics
runEngineExperiment(const ExperimentSpec &spec)
{
    SystemConfig sys = spec.sys;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;
    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing,
                                             sys.geometry};

    engine::ShardedEngineConfig cfg;
    cfg.engine.timing = sys.timing;
    cfg.engine.geometry = sys.geometry;
    cfg.engine.flipTh = spec.flipTh;
    cfg.engine.blastRadius = spec.blastRadius;
    cfg.shards = spec.shards;
    // Telemetry: metrics + heatmap under telemetry=, event tracing
    // under trace-events=. Observation only — the engine is
    // byte-identical with any of these enabled.
    cfg.telemetry.metrics = spec.telemetry || !spec.traceEvents.empty();
    cfg.telemetry.events = !spec.traceEvents.empty();
    cfg.telemetry.eventCapacityPerBank = spec.traceCapacity;
    cfg.telemetry.heatmap = spec.telemetry;
    cfg.telemetry.heatmapRegionBudget = spec.heatmapRegions;

    // Pool policy, in priority order: the ambient pool when this job
    // already runs on one (no second pool, no oversubscription), a
    // private pool when threads= asks for one, else inline shards.
    std::unique_ptr<runner::ThreadPool> local_pool;
    if (!runner::ThreadPool::current() && spec.threads > 1) {
        local_pool =
            std::make_unique<runner::ThreadPool>(spec.threads);
        cfg.pool = local_pool.get();
    }

    engine::ShardedActStreamEngine eng(cfg, [&] {
        return registry::makeScheme(spec.scheme, params, scheme_ctx);
    });
    const registry::SourceContext source_ctx{
        sys.timing, sys.geometry, spec.flipTh, spec.seed};
    auto make_stream = [&] {
        return registry::makeActSource(spec.source, params,
                                       source_ctx);
    };

    // record=: capture the exact stream prefix this run will consume
    // — a separate drain of a fresh stream copy, so sharded runs
    // (which pull per-shard slices or filtered copies) record the one
    // canonical global stream. Registry sources are deterministic in
    // their seed, so the capture equals what the run replays.
    // Opening the writer would truncate an input file before the
    // reader ever sees it. Any entry-declared extra naming the
    // record target is treated as that input — "trace=" (act-trace),
    // "trace-file=" (instruction traces), or a user-registered
    // source's own path param; sameFile() sees through aliases.
    auto check_output_path = [&](const char *knob,
                                 const std::string &path) {
        if (path.empty())
            return;
        for (const std::string &key : spec.extras.keys()) {
            const std::string value = spec.extras.getString(key, "");
            if (!value.empty() && sameFile(path, value)) {
                throw registry::SpecError(
                    std::string(knob) + "= and " + key +
                    "= name the same file '" + path +
                    "'; re-capturing a replay needs a different "
                    "output path");
            }
        }
    };
    check_output_path("record", spec.record);
    check_output_path("trace-events", spec.traceEvents);
    // trace-pipeline=: compose the corpus this run replays, before
    // the source is first opened. validate() already pinned
    // source=act-trace + trace=; the pipeline itself guards against
    // writing onto one of its own inputs.
    if (!spec.tracePipeline.empty()) {
        trace::materializePipeline(spec.tracePipeline,
                                   spec.extras.getString("trace", ""),
                                   spec.seed);
    }
    if (!spec.record.empty()) {
        engine::ActTraceWriter writer(spec.record, sys.geometry,
                                      spec.seed, spec.describe());
        auto stream = make_stream();
        engine::ActBatch batch;
        std::uint64_t remaining = spec.engineActs;
        while (remaining > 0) {
            batch.clear();
            const std::size_t n = stream->fill(
                batch,
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    engine::ActBatch::kCapacity, remaining)));
            if (n == 0)
                break;
            for (std::size_t i = 0; i < n; ++i) {
                const engine::ActRecord rec = batch.record(i);
                writer.append(rec.bank, rec.row, rec.tick);
            }
            remaining -= n;
        }
        writer.finalize();
    }

    // Tracker warm-up, mirroring the System path: the tracker
    // observes `warmup=` ACTs at tick 0 before the measured run, the
    // oracle none. Each shard's tracker warms from its own banks'
    // slice of the stream prefix, so warm-up — like the run itself —
    // is byte-identical at any shard count.
    if (spec.trackerWarmupActs > 0 && eng.tracker(0)) {
        std::vector<RowId> discard;
        engine::ActBatch batch;
        auto warm = eng.shardSources(make_stream,
                                     spec.trackerWarmupActs);
        for (std::uint32_t s = 0; s < eng.shardCount(); ++s) {
            trackers::RhProtection *tracker = eng.tracker(s);
            while (warm[s]->fill(batch, engine::ActBatch::kCapacity)) {
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    const engine::ActRecord rec = batch.record(i);
                    discard.clear();
                    tracker->onActivate(rec.bank, rec.row, 0,
                                        discard);
                }
                batch.clear();
            }
        }
    }

    eng.run(make_stream, spec.engineActs);
    checkOracleConserved("engine", eng.oracleActivations(), eng.acts());

    RunMetrics m;
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
    if (cfg.telemetry.metrics)
        m.telemetry = eng.telemetrySheet().exportFlat();
    if (!spec.traceEvents.empty()) {
        telemetry::writeChromeTraceFile(spec.traceEvents,
                                        eng.mergedEvents(),
                                        spec.scheme, eng.numBanks());
    }
    return m;
}

} // namespace

RunMetrics
runExperiment(const ExperimentSpec &spec)
{
    spec.validate();

    if (spec.engineRun())
        return runEngineExperiment(spec);

    SystemConfig sys = spec.sys;
    sys.flipTh = spec.flipTh;
    sys.blastRadius = spec.blastRadius;
    if (spec.channels != 0)
        sys.geometry.channels = spec.channels;
    if (spec.mcThreads != 0)
        sys.mcThreads = spec.mcThreads;

    const ParamSet params = spec.toParams();
    const registry::SchemeContext scheme_ctx{sys.timing,
                                             sys.geometry};

    const bool attacking = spec.attacking();
    const std::uint32_t benign =
        attacking ? spec.cores - 1 : spec.cores;

    // One address map shared by the attacker generators and the
    // warm-up profiling; it must outlive the System, which owns
    // generators that compose addresses through it on every record.
    mc::AddressMap map(sys.geometry);

    auto make_benign = [&](std::uint32_t core_id) {
        return registry::makeWorkload(
            spec.workload, params, {core_id, benign, spec.seed});
    };
    auto make_attacker = [&]() {
        const registry::AttackContext ctx{
            map, spec.flipTh, benign, spec.seed, make_benign};
        return registry::makeAttack(spec.attack, params, ctx);
    };

    // One tracker instance per channel lane — the same per-partition
    // factory discipline the sharded engine applies to bank shards.
    System system(sys, [&] {
        return registry::makeScheme(spec.scheme, params, scheme_ctx);
    });

    // Warm-up feeds each channel's tracker the ACTs that decode to
    // its banks, mirroring the engine's per-shard warm-up slicing.
    if (system.tracker(0) && spec.trackerWarmupActs > 0) {
        std::vector<RowId> discard;
        auto feed = [&](workload::TraceGenerator &gen,
                        std::uint64_t count) {
            for (std::uint64_t i = 0; i < count; ++i) {
                auto rec = gen.next();
                if (!rec)
                    break;
                mc::Request req;
                req.addr = rec->addr;
                map.decode(req);
                discard.clear();
                system.tracker(req.channel)
                    ->onActivate(req.bank, req.row, 0, discard);
            }
        };
        if (spec.warmupFromWorkload) {
            const std::uint64_t per_core =
                spec.trackerWarmupActs / benign;
            for (std::uint32_t i = 0; i < benign; ++i) {
                auto gen = make_benign(i);
                feed(*gen, per_core);
            }
        }
        if (attacking) {
            auto gen = make_attacker();
            feed(*gen, spec.trackerWarmupActs);
        }
    }

    system.snapshotTrackerOps();

    // record=: tap every ACT the controller commits (bank, row,
    // issue tick) — exactly the stream the tracker observes; warm-up
    // above fed generators directly, so it is not captured. The
    // telemetry heatmap rides the same observer.
    std::unique_ptr<engine::ActTraceWriter> recorder;
    if (!spec.record.empty()) {
        recorder = std::make_unique<engine::ActTraceWriter>(
            spec.record, sys.geometry, spec.seed, spec.describe());
    }
    std::unique_ptr<telemetry::ActHeatmap> heatmap;
    if (spec.telemetry) {
        heatmap = std::make_unique<telemetry::ActHeatmap>(
            sys.geometry.totalBanks(), spec.heatmapRegions);
    }
    if (recorder || heatmap) {
        // System delivers ACTs channel-major per service window with
        // per-bank ticks monotone — the exact order contract of the
        // acttrace writer, at any mcThreads value.
        system.setActObserver(
            [&recorder, &heatmap](BankId bank, RowId row, Tick t) {
                if (recorder)
                    recorder->append(bank, row, t);
                if (heatmap)
                    heatmap->touch(bank, row);
            });
    }

    // trace-events=: mitigation events from the controllers (RFM
    // issue/skip, executed ARRs, throttle stalls), the oracles (flips
    // and near misses), and the trackers (CBS inserts/evictions).
    // One recorder per channel lane — a shared recorder would race
    // when lanes run in parallel — merged in channel order on output.
    // Observation only — scheduling and outcomes are unchanged.
    std::vector<std::unique_ptr<telemetry::EventRecorder>> events;
    if (!spec.traceEvents.empty()) {
        for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
            auto rec = std::make_unique<telemetry::EventRecorder>(
                sys.geometry.totalBanks(), spec.traceCapacity);
            system.controller(ch).setEventRecorder(rec.get());
            system.device(ch).oracle().setEventRecorder(rec.get());
            if (system.tracker(ch))
                system.tracker(ch)->setEventRecorder(rec.get());
            events.push_back(std::move(rec));
        }
    }

    for (std::uint32_t i = 0; i < benign; ++i) {
        cpu::CoreParams core_params;
        core_params.instrBudget = spec.instrPerCore;
        system.addCore(core_params, make_benign(i));
    }
    if (attacking) {
        cpu::CoreParams core_params;
        core_params.instrBudget = ~0ull;  // Runs until the benign
                                          // cores end.
        core_params.excluded = true;
        system.addCore(core_params, make_attacker());
    }

    system.run();

    if (recorder || heatmap)
        system.setActObserver(nullptr);
    if (recorder)
        recorder->finalize();

    RunMetrics m;
    m.aggIpc = system.aggregateIpc();
    m.energyPj = system.totalEnergyPj();
    m.simTicks = system.now();

    const mc::ControllerStats stats = system.stats();
    checkOracleConserved("system", system.oracleActivations(),
                         stats.activates);
    m.acts = stats.activates;
    m.reads = stats.reads;
    m.writes = stats.writes;
    m.rfmIssued = stats.rfmIssued;
    m.rfmSkippedMrr = stats.rfmSkippedByMrr;
    m.arrExecuted = stats.arrExecuted;
    m.throttleStalls = stats.throttleStalls;
    m.avgReadLatencyNs = stats.avgReadLatencyNs();
    m.p95ReadLatencyNs = stats.readLatencyNs.percentile(0.95);
    m.preventiveRefreshes = system.preventiveCount();

    m.maxDisturbance = system.maxDisturbanceEver();
    m.bitFlips = system.bitFlips();
    if (system.tracker(0))
        m.trackerBytesPerBank = system.tracker(0)->tableBytesPerBank();

    // Detach the per-channel recorders; the metric sheet and the
    // Chrome trace both read them in channel order.
    std::vector<const telemetry::EventRecorder *> recorders;
    for (std::uint32_t ch = 0; ch < events.size(); ++ch) {
        system.controller(ch).setEventRecorder(nullptr);
        system.device(ch).oracle().setEventRecorder(nullptr);
        if (system.tracker(ch))
            system.tracker(ch)->setEventRecorder(nullptr);
        recorders.push_back(events[ch].get());
    }
    if (spec.telemetry || !events.empty()) {
        telemetry::MetricSheet sheet;
        telemetry::exportControllerStats(sheet, stats);
        telemetry::exportOracle(sheet, system.bitFlips(),
                                system.flippedRows(),
                                system.maxDisturbanceEver());
        if (!events.empty())
            telemetry::exportEventCounts(sheet, recorders);
        if (heatmap)
            telemetry::exportHeatmap(sheet, *heatmap);
        if (system.tracker(0)) {
            // exportMetrics() *sets* values, so each channel's tracker
            // exports into its own sheet; mergeFrom then adds counters
            // across channels (in channel order).
            for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
                telemetry::MetricSheet tracker_sheet;
                system.tracker(ch)->exportMetrics(tracker_sheet);
                sheet.mergeFrom(tracker_sheet);
            }
        }
        m.telemetry = sheet.exportFlat();
    }
    if (!events.empty()) {
        telemetry::writeChromeTraceFile(
            spec.traceEvents, telemetry::mergeEvents(recorders),
            spec.scheme, sys.geometry.totalBanks());
    }
    return m;
}

double
relativePerf(const RunMetrics &value, const RunMetrics &baseline)
{
    MITHRIL_ASSERT(baseline.aggIpc > 0.0);
    return 100.0 * value.aggIpc / baseline.aggIpc;
}

double
energyOverheadPct(const RunMetrics &value, const RunMetrics &baseline)
{
    MITHRIL_ASSERT(baseline.energyPj > 0.0);
    return 100.0 * (value.energyPj - baseline.energyPj) /
           baseline.energyPj;
}

} // namespace mithril::sim
