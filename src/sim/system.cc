#include "system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/exports.hh"

namespace mithril::sim
{

System::System(const SystemConfig &config, TrackerFactory make_tracker)
    : config_(config)
{
    map_ = std::make_unique<mc::AddressMap>(config_.geometry);
    lookahead_ =
        std::min(config_.timing.tCL, config_.timing.tCWL) +
        config_.timing.tBL;

    lanes_.reserve(config_.geometry.channels);
    for (std::uint32_t ch = 0; ch < config_.geometry.channels; ++ch) {
        auto lane = std::make_unique<Lane>();
        lane->device = std::make_unique<dram::Device>(
            config_.timing, config_.geometry, config_.flipTh,
            config_.blastRadius);
        if (make_tracker)
            lane->tracker = make_tracker();
        lane->device->setTracker(lane->tracker.get());
        lane->controller = std::make_unique<mc::Controller>(
            *lane->device, *map_, config_.mcParams, ch);

        // Completions are buffered lane-locally and turned into event
        // queue entries only at the window drain (in channel order):
        // the callback may fire on a worker thread, and the drain
        // order is what keeps the event queue's tie-breaking sequence
        // numbers deterministic at any pool size.
        Lane *lp = lane.get();
        lane->controller->setCompletionCallback(
            [this, lp](const mc::Request &req, Tick completion) {
                if (!req.tracked || req.coreId >= cores_.size())
                    return;
                lp->completions.push_back({completion, req.coreId});
            });
        lanes_.push_back(std::move(lane));
    }
    cache_ = std::make_unique<cpu::Cache>(config_.cacheParams);
}

void
System::setActObserver(dram::Device::ActObserver observer)
{
    actObserver_ = std::move(observer);
    for (auto &lane : lanes_) {
        if (actObserver_) {
            Lane *lp = lane.get();
            lane->device->setActObserver(
                [lp](BankId b, RowId r, Tick t) {
                    lp->acts.push_back({b, r, t});
                });
        } else {
            lane->device->setActObserver(nullptr);
        }
    }
}

cpu::Core &
System::addCore(const cpu::CoreParams &params,
                std::unique_ptr<workload::TraceGenerator> trace)
{
    MITHRIL_ASSERT(!started_);
    const auto id = static_cast<std::uint32_t>(cores_.size());
    traces_.push_back(std::move(trace));
    cores_.push_back(
        std::make_unique<cpu::Core>(id, params, traces_.back().get()));
    coreWake_.push_back(kTickMax);
    cores_.back()->setAccessFn(
        [this](std::uint32_t core_id, const workload::TraceRecord &rec,
               Tick now) { return access(core_id, rec, now); });
    return *cores_.back();
}

cpu::Core::AccessOutcome
System::access(std::uint32_t core_id, const workload::TraceRecord &rec,
               Tick now)
{
    cpu::Core::AccessOutcome outcome;

    auto channelOf = [&](Addr addr) {
        mc::Request probe;
        probe.addr = addr;
        map_->decode(probe);
        return probe.channel;
    };
    // A lane that receives a request is serviced at `now`; lanes
    // without new work keep their own next tick.
    auto enqueue = [&](Addr addr, bool write, bool tracked) -> bool {
        mc::Request req;
        req.addr = addr;
        req.isWrite = write;
        req.tracked = tracked;
        req.coreId = core_id;
        map_->decode(req);
        Lane &lane = *lanes_[req.channel];
        if (!lane.controller->enqueue(req, now))
            return false;
        lane.next = std::min(lane.next, now);
        return true;
    };

    if (rec.uncached) {
        outcome.accepted = enqueue(rec.addr, rec.write, true);
        outcome.missOutstanding = outcome.accepted;
        return outcome;
    }

    // Reserve queue slots in every channel the access may touch
    // *before* mutating the cache, so a rejected access can retry
    // with unchanged LRU state. A miss needs one slot for the fill —
    // and, when the victim line is dirty, one slot in the channel its
    // writeback decodes to, which (for cache lines wider than the
    // channel-interleave granularity) need not be the fill's channel.
    const auto victim = cache_->peekVictim(rec.addr);
    if (!victim.hit) {
        const std::uint32_t fill_ch = channelOf(rec.addr);
        std::size_t fill_need = 1;
        if (victim.writeback) {
            const std::uint32_t wb_ch = channelOf(victim.writebackAddr);
            if (wb_ch == fill_ch) {
                ++fill_need;
            } else if (lanes_[wb_ch]->controller->queueDepth() + 1 >
                       config_.mcParams.queueCapacity) {
                outcome.accepted = false;
                return outcome;
            }
        }
        if (lanes_[fill_ch]->controller->queueDepth() + fill_need >
            config_.mcParams.queueCapacity) {
            outcome.accepted = false;
            return outcome;
        }
    }

    const auto result = cache_->access(rec.addr, rec.write);
    MITHRIL_ASSERT(result.hit == victim.hit);
    MITHRIL_ASSERT(result.writeback == victim.writeback);
    if (result.hit)
        return outcome;  // Hit: no DRAM traffic.

    const bool accepted = enqueue(rec.addr, rec.write, true);
    MITHRIL_ASSERT(accepted);
    if (result.writeback) {
        // The slot was reserved above; a failed enqueue here would be
        // silent write loss (the bug this path regressed with before).
        const bool wb_accepted =
            enqueue(result.writebackAddr, true, false);
        MITHRIL_ASSERT_MSG(wb_accepted,
                           "cross-channel writeback dropped: no queue "
                           "slot despite reservation");
    }
    outcome.missOutstanding = true;
    return outcome;
}

void
System::wakeCore(std::uint32_t core_id, Tick now)
{
    cpu::Core &core = *cores_[core_id];
    const Tick next = core.tryProgress(now);
    if (next != kTickMax) {
        MITHRIL_ASSERT(next > now);
        scheduleWake(core_id, next);
    }
}

void
System::scheduleWake(std::uint32_t core_id, Tick when)
{
    // One live wake chain per core. A pending wake at or before `when`
    // re-derives the core's next tick when it fires, so a second event
    // would be pure overhead — and a core polling a full queue would
    // otherwise gain one chain per completion, growing the event rate
    // without bound over the run.
    if (coreWake_[core_id] <= when)
        return;
    coreWake_[core_id] = when;
    evq_.schedule(when, [this, core_id](Tick t) {
        if (coreWake_[core_id] == t)
            coreWake_[core_id] = kTickMax;
        wakeCore(core_id, t);
    });
}

bool
System::benignDone() const
{
    bool any_benign = false;
    for (const auto &core : cores_) {
        if (core->excluded())
            continue;
        any_benign = true;
        if (!core->done())
            return false;
    }
    return any_benign;
}

void
System::advanceLane(Lane &lane, Tick window_end)
{
    while (lane.next <= window_end) {
        const Tick t = lane.next;
        lane.lastServiced = t;
        lane.next = lane.controller->service(t);
        MITHRIL_ASSERT(lane.next > t);
    }
}

void
System::run()
{
    MITHRIL_ASSERT(!started_);
    started_ = true;

    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        scheduleWake(i, 0);

    // Lane pool policy: opt-in only. Window granularity is a few ns of
    // simulated time, so the parallelFor hand-off must be paid for by
    // real per-lane work — sweeps running many Systems concurrently
    // keep mcThreads=1 and parallelize across jobs instead.
    runner::ThreadPool *pool = nullptr;
    if (config_.mcThreads > 1 && lanes_.size() > 1) {
        pool = runner::ThreadPool::current();
        if (!pool) {
            const unsigned workers =
                std::min<unsigned>(config_.mcThreads,
                                   static_cast<unsigned>(lanes_.size()));
            ownPool_ = std::make_unique<runner::ThreadPool>(workers);
            pool = ownPool_.get();
        }
    }

    while (!benignDone()) {
        Tick t_mc = kTickMax;
        for (const auto &lane : lanes_)
            t_mc = std::min(t_mc, lane->next);
        const Tick t_ev = evq_.nextTime();

        if (t_mc <= t_ev) {
            // Lanes are due strictly before the next event: advance
            // every due lane through the causality window. No command
            // issued inside [t_mc, window_end] can produce a
            // completion (hence a core wakeup, hence a new request)
            // before t_mc + lookahead_, so the lanes are mutually
            // independent over the whole window and may run in
            // parallel — or serially in channel order — with
            // byte-identical results.
            if (t_mc > config_.horizon)
                break;
            Tick window_end = std::min(t_ev, config_.horizon);
            window_end = std::min(window_end, t_mc + lookahead_);

            due_.clear();
            for (auto &lane : lanes_)
                if (lane->next <= window_end)
                    due_.push_back(lane.get());
            if (pool && due_.size() > 1) {
                pool->parallelFor(due_.size(), [&](std::size_t i) {
                    advanceLane(*due_[i], window_end);
                });
            } else {
                for (Lane *lane : due_)
                    advanceLane(*lane, window_end);
            }
            for (const Lane *lane : due_)
                now_ = std::max(now_, lane->lastServiced);

            // Drain the lane buffers in channel order: completions
            // become event-queue entries (tie-broken by insertion
            // sequence — hence by channel), ACT records reach the
            // observer channel-major with per-bank ticks monotone.
            for (auto &lane : lanes_) {
                if (actObserver_) {
                    for (const Lane::Act &act : lane->acts)
                        actObserver_(act.bank, act.row, act.tick);
                }
                lane->acts.clear();
                for (const Lane::Completion &c : lane->completions) {
                    const std::uint32_t core_id = c.coreId;
                    evq_.schedule(c.tick, [this, core_id](Tick t) {
                        cores_[core_id]->onCompletion(t);
                        wakeCore(core_id, t);
                    });
                }
                lane->completions.clear();
            }
            continue;
        }

        if (t_ev == kTickMax || t_ev > config_.horizon)
            break;
        now_ = evq_.popAndRun();
        // A lane that received a request was woken by access(). One
        // without new work would only repeat its last pass unless that
        // pass's outcome can go stale (a refresh drain or deadline
        // passed, or a throttled ACT waits), and then it is serviced
        // at every event, as a lane with new work would be.
        for (auto &lane : lanes_)
            if (now_ >= lane->controller->stableUntil())
                lane->next = std::min(lane->next, now_);
    }
}

double
System::aggregateIpc() const
{
    double sum = 0.0;
    for (const auto &core : cores_) {
        if (!core->excluded())
            sum += core->ipc();
    }
    return sum;
}

mc::ControllerStats
System::stats() const
{
    mc::ControllerStats merged;
    for (const auto &lane : lanes_)
        merged.mergeFrom(lane->controller->stats());
    return merged;
}

dram::EnergyMeter
System::energy() const
{
    dram::EnergyMeter merged;
    for (const auto &lane : lanes_)
        merged.mergeFrom(lane->device->energy());
    return merged;
}

std::uint64_t
System::bitFlips() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->oracle().bitFlips();
    return sum;
}

std::uint64_t
System::flippedRows() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->oracle().flippedRows();
    return sum;
}

double
System::maxDisturbanceEver() const
{
    double max_d = 0.0;
    for (const auto &lane : lanes_)
        max_d = std::max(max_d,
                         lane->device->oracle().maxDisturbanceEver());
    return max_d;
}

std::uint64_t
System::preventiveCount() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->preventiveCount();
    return sum;
}

std::uint64_t
System::rfmCount() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->rfmCount();
    return sum;
}

std::uint64_t
System::rfmSkipped() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_)
        sum += lane->device->rfmSkipped();
    return sum;
}

std::uint64_t
System::trackerLogicOps() const
{
    std::uint64_t sum = 0;
    for (const auto &lane : lanes_) {
        if (lane->tracker)
            sum += lane->tracker->logicOps();
    }
    return sum;
}

double
System::totalEnergyPj() const
{
    dram::EnergyMeter meter = energy();
    meter.addTrackerOps(trackerLogicOps() - trackerOpBaseline_);
    return meter.totalPj();
}

void
System::snapshotTrackerOps()
{
    trackerOpBaseline_ = trackerLogicOps();
}

void
System::exportStats(telemetry::MetricSheet &sheet) const
{
    const mc::ControllerStats mc = stats();
    telemetry::exportControllerStats(sheet, mc);
    sheet.setCounter("mc.precharges", mc.precharges);
    sheet.setGauge("mc.read_lat_avg_ns", mc.avgReadLatencyNs());

    const dram::EnergyMeter em = energy();
    sheet.setCounter("dram.acts", em.acts());
    sheet.setCounter("dram.pres", em.pres());
    sheet.setCounter("dram.refresh_rows", em.refreshRows());
    sheet.setCounter("dram.preventive_rows", em.preventiveRows());
    sheet.setCounter("dram.rfm_count", rfmCount());
    sheet.setCounter("dram.rfm_skipped", rfmSkipped());

    sheet.setCounter("cache.hits", cache_->hits());
    sheet.setCounter("cache.misses", cache_->misses());
    sheet.setCounter("cache.writebacks", cache_->writebacks());

    telemetry::exportOracle(sheet, bitFlips(), flippedRows(),
                            maxDisturbanceEver());

    for (const auto &core : cores_) {
        const std::string prefix =
            "core" + std::to_string(core->id());
        sheet.setCounter(prefix + ".instructions",
                         core->instructionsRetired());
        sheet.setGauge(prefix + ".ipc", core->ipc());
    }
}

} // namespace mithril::sim
